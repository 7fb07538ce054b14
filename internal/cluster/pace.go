// Pace tracking: the coordinator keeps a per-peer EWMA of observed
// seconds-per-point, fed by the merge path as result frames arrive, and
// derives each shard attempt's deadline from it — expected points ×
// median pace × safety factor — in place of the one-size ShardTimeout. An
// attempt on a peer that falls far behind the fleet's pace times out and
// its shard is reassigned from its resume offset.
package cluster

import (
	"math"
	"sort"
	"sync"
	"time"
)

// peerRates tracks one EWMA of seconds-per-point per peer. It lives on
// the Coordinator, persisting across sweeps, so a follow-up sweep starts
// with a calibrated pace instead of re-learning the fleet.
type peerRates struct {
	mu   sync.Mutex
	ewma []float64 // seconds per point; 0 = never observed
}

// ewmaAlpha weights new observations ~30%: noisy single frames don't whip
// the pace around, but a genuinely slowed peer shows within a few points.
const ewmaAlpha = 0.3

// deadlineSafety is the headroom an attempt gets over the fleet's median
// pace before its deadline expires.
const deadlineSafety = 4

func newPeerRates(n int) *peerRates { return &peerRates{ewma: make([]float64, n)} }

// observe folds one inter-result gap into the peer's pace.
func (r *peerRates) observe(peer int, secPerPoint float64) {
	if secPerPoint < 0 || math.IsNaN(secPerPoint) || math.IsInf(secPerPoint, 0) {
		return
	}
	r.mu.Lock()
	if cur := r.ewma[peer]; cur == 0 {
		r.ewma[peer] = secPerPoint
	} else {
		r.ewma[peer] = ewmaAlpha*secPerPoint + (1-ewmaAlpha)*cur
	}
	r.mu.Unlock()
}

// median returns the fleet's median pace over peers with observations —
// the LOWER median, deliberately optimistic: when half the fleet is slow,
// the healthy half defines "on pace" and the slow half reads as lagging.
// Returns 0 until any peer has been observed.
func (r *peerRates) median() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var known []float64
	for _, v := range r.ewma {
		if v > 0 {
			known = append(known, v)
		}
	}
	if len(known) == 0 {
		return 0
	}
	sort.Float64s(known)
	return known[(len(known)-1)/2]
}

// shardDeadline derives one attempt's deadline from the fleet pace:
// expected points × median seconds-per-point × deadlineSafety, clamped to
// [DeadlineFloor, ShardTimeout]. With no pace observed yet (first shards
// of a cold coordinator) the full ShardTimeout applies.
func (c *Coordinator) shardDeadline(points int) time.Duration {
	med := c.rates.median()
	if med <= 0 || points <= 0 {
		return c.cfg.ShardTimeout
	}
	d := time.Duration(float64(points) * med * deadlineSafety * float64(time.Second))
	if d < c.cfg.DeadlineFloor {
		d = c.cfg.DeadlineFloor
	}
	if d > c.cfg.ShardTimeout {
		d = c.cfg.ShardTimeout
	}
	if mt := c.cfg.Metrics; mt != nil {
		mt.Deadline.Set(int64(math.Ceil(d.Seconds())))
	}
	return d
}
