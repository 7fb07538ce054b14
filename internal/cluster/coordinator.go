// Coordinator side of distributed sweeps: expand the scenario once, split
// the point index space into shards, route each shard to a worker by
// memo-key affinity (hash of the shard's leading workload/device axes, so
// repeated sweeps keep each worker's pipeline memo and stream caches hot),
// stream the shard results back over SSE, and merge them into exact
// scenario.Expand order.
//
// Failure handling is layered. Failed or timed-out shards are reassigned
// to the next peer with capped, jittered exponential backoff under a
// bounded attempt budget; the per-shard resume offset advances past
// results already merged, so retries never recompute or duplicate points.
// Per-peer circuit breakers (breaker.go) take chronically failing peers
// out of the rotation, and shard deadlines adapt to the fleet's observed
// pace (pace.go) instead of the worst-case ShardTimeout, so a straggling
// peer's attempt times out and its shard moves on. Each shard has a single
// owner: one attempt in flight at a time.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"delta/internal/durable"
	"delta/internal/obs"
	"delta/internal/pipeline"
	"delta/internal/scenario"
)

// Fleet metric names, package-level constants by house rule (delta-vet's
// metrichygiene analyzer): one greppable block for the whole
// delta_cluster_ namespace.
const (
	metricShards       = "delta_cluster_shards_total"
	metricRetries      = "delta_cluster_shard_retries_total"
	metricInFlight     = "delta_cluster_shards_in_flight"
	metricMerged       = "delta_cluster_points_merged_total"
	metricMergeLag     = "delta_cluster_merge_lag"
	metricPeerUp       = "delta_cluster_peer_up"
	metricBreakerState = "delta_cluster_breaker_state"
	metricDeadline     = "delta_cluster_adaptive_deadline_seconds"
)

// Metrics is the fleet's instrumentation; register with NewMetrics and
// share one instance across sweeps. A nil *Metrics disables recording.
type Metrics struct {
	Shards       *obs.CounterVec // metricShards{peer,status}
	Retries      *obs.Counter    // metricRetries
	InFlight     *obs.Gauge      // metricInFlight
	Merged       *obs.Counter    // metricMerged
	MergeLag     *obs.Gauge      // metricMergeLag
	PeerUp       *obs.GaugeVec   // metricPeerUp{peer}
	BreakerState *obs.GaugeVec   // metricBreakerState{peer}
	Deadline     *obs.Gauge      // metricDeadline
}

// NewMetrics registers the fleet series on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Shards:       r.CounterVec(metricShards, "Finished shard attempts by peer and outcome.", "peer", "status"),
		Retries:      r.Counter(metricRetries, "Shard attempts retried on another peer after a failure."),
		InFlight:     r.Gauge(metricInFlight, "Shard attempts currently streaming from peers."),
		Merged:       r.Counter(metricMerged, "Scenario points merged into coordinator results."),
		MergeLag:     r.Gauge(metricMergeLag, "Points received out of order, buffered awaiting the in-order merge."),
		PeerUp:       r.GaugeVec(metricPeerUp, "Last observed peer reachability (1 ready, 0 unreachable or degraded).", "peer"),
		BreakerState: r.GaugeVec(metricBreakerState, "Per-peer circuit breaker state (0 closed, 1 half-open, 2 open).", "peer"),
		Deadline:     r.Gauge(metricDeadline, "Most recent adaptive shard deadline derived from the fleet's pace."),
	}
}

// Recorder persists shard lifecycle transitions (the durable store's
// RecordShard). Recording failures are logged, never fatal to the sweep.
type Recorder interface {
	RecordShard(job string, shard, offset, count int, peer string, attempt int, status string) error
}

// Config wires a Coordinator; Peers is required, everything else defaults.
type Config struct {
	// Peers are the workers' base URLs (e.g. http://host:8080).
	Peers []string

	// ShardsPerPeer scales the shard count: the sweep splits into
	// len(Peers)*ShardsPerPeer shards (capped at the point count), small
	// enough for memo affinity to matter, large enough that losing a
	// worker reassigns fractions of the sweep, not halves. Default 4.
	ShardsPerPeer int

	// MaxAttempts bounds failed dispatch attempts per shard; default
	// max(3, len(Peers)+1) so a single dead peer can never exhaust a
	// shard's budget before every other peer has had a turn.
	MaxAttempts int

	// ShardTimeout is the hard ceiling on one shard attempt end to end
	// (default 10m). Once the fleet's pace is known, attempts run under
	// the tighter adaptive deadline instead (see DeadlineFloor).
	ShardTimeout time.Duration

	// RetryBackoff is the initial reassignment delay (default 250ms),
	// doubled per attempt up to MaxBackoff (default 5s), jittered ±50%.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration

	// HealthTimeout bounds one peer /healthz probe (default 2s).
	HealthTimeout time.Duration

	// BreakerThreshold opens a peer's circuit breaker after this many
	// consecutive failures (default 3); BreakerCooldown is how long it
	// stays open before a half-open probe (default 10s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// DeadlineFloor is the lower clamp on adaptive shard deadlines
	// (default 30s). An attempt's deadline is its expected points × the
	// fleet's median seconds-per-point × 4, clamped to [DeadlineFloor,
	// ShardTimeout]; an attempt that overruns it is reassigned.
	DeadlineFloor time.Duration

	// RerouteDelay spaces out queue hops when a peer's breaker rejects a
	// dispatch (default 100ms) so a fully-open fleet doesn't spin.
	RerouteDelay time.Duration

	// Token authenticates against the workers' bearer-auth middleware.
	Token string

	// HTTP issues shard and health requests; nil means a default client
	// (no client-level timeout — shard streams are long-lived).
	HTTP *http.Client

	// Client tunes the per-attempt SSE reconnect policy; zero values take
	// the Client defaults.
	ClientRetries int
	ClientBackoff time.Duration

	Metrics  *Metrics
	Recorder Recorder
	Log      *log.Logger
}

// Coordinator fans a scenario sweep out across a worker fleet. Breakers
// and the pace EWMA persist across sweeps: the coordinator remembers
// which peers are broken and how fast the fleet runs.
type Coordinator struct {
	cfg      Config
	breakers []*Breaker
	rates    *peerRates
}

// New validates the config and applies defaults.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: no peers")
	}
	peers := make([]string, len(cfg.Peers))
	for i, p := range cfg.Peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer %d", i)
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		peers[i] = p
	}
	cfg.Peers = peers
	if cfg.ShardsPerPeer <= 0 {
		cfg.ShardsPerPeer = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = len(peers) + 1
		if cfg.MaxAttempts < 3 {
			cfg.MaxAttempts = 3
		}
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 10 * time.Minute
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 2 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 10 * time.Second
	}
	if cfg.DeadlineFloor <= 0 {
		cfg.DeadlineFloor = 30 * time.Second
	}
	if cfg.RerouteDelay <= 0 {
		cfg.RerouteDelay = 100 * time.Millisecond
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{}
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	c := &Coordinator{cfg: cfg, rates: newPeerRates(len(peers))}
	c.breakers = make([]*Breaker, len(peers))
	for i, p := range peers {
		var onChange func(BreakerState)
		if cfg.Metrics != nil && cfg.Metrics.BreakerState != nil {
			gauge, label := cfg.Metrics.BreakerState, peerLabel(p)
			onChange = func(s BreakerState) { gauge.With(label).Set(int64(s)) }
		}
		c.breakers[i] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, onChange)
	}
	return c, nil
}

// Peers returns the normalized peer URLs.
func (c *Coordinator) Peers() []string { return append([]string(nil), c.cfg.Peers...) }

// Update is one merged per-point result, delivered in expansion order.
type Update struct {
	// Index is the point's position in expansion order (dense from the
	// sweep's offset).
	Index int

	// Err is the point's evaluation error ("" on success).
	Err string

	// Payload is the worker-rendered result, byte-identical to what the
	// same point renders single-node.
	Payload json.RawMessage
}

// Sweep describes one distributed run.
type Sweep struct {
	// JobID labels durable shard records (empty skips recording).
	JobID string

	// Doc is the scenario document forwarded verbatim to workers.
	Doc json.RawMessage

	// Scenario is the same document resolved locally — the coordinator
	// expands it once for totals and affinity routing, and trusts workers
	// to expand identically (scenario.Expand is deterministic).
	Scenario scenario.Scenario

	// Offset resumes a sweep: points before it are already merged
	// (len of the durable results), so only [Offset, Size()) is dispatched.
	Offset int

	// Policy is applied to the merged in-order stream: FailFast stops
	// emitting at the first erroring point exactly like a single-node
	// fail-fast sweep; CollectPartial delivers every point.
	Policy pipeline.ErrorPolicy
}

// Sentinel cancellation causes for the run context.
var (
	errSweepDone    = errors.New("cluster: sweep complete")
	errSweepStopped = errors.New("cluster: sweep stopped at failing point")
)

// shardTask is one shard's dispatch state. It has a single owner at a
// time — the runner streaming it, or the peer queue it waits in — and is
// handed between runners over the queues, so it needs no lock.
type shardTask struct {
	idx      int
	rng      scenario.Range
	got      int // points merged from this shard: the resume offset
	failures int // failed attempts, charged against MaxAttempts

	// hops counts breaker-rejected reroutes since the shard last ran, so
	// a fully-open fleet eventually forces it through instead of
	// circulating it forever.
	hops int
}

// sweepState is one Run's shared machinery: the queues, the merger, and
// the completion counter.
type sweepState struct {
	sw        Sweep
	m         *merger
	queues    []chan *shardTask
	runCtx    context.Context
	cancel    context.CancelCauseFunc
	wg        sync.WaitGroup
	remaining atomic.Int64
}

// enqueue hands a shard to a peer's queue from a goroutine, optionally
// after a delay, giving up when the sweep ends — so no send ever blocks a
// runner or leaks past Run.
func (st *sweepState) enqueue(peer int, t *shardTask, delay time.Duration) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-st.runCtx.Done():
				return
			}
		}
		select {
		case st.queues[peer] <- t:
		case <-st.runCtx.Done():
		}
	}()
}

// Run executes the sweep, delivering merged updates in expansion order via
// emit (called serially). It returns nil when the sweep completes or stops
// at a failing point under FailFast — point errors ride in the updates —
// and an error only for coordination failures: context cancellation, an
// emit error, or a shard exhausting its attempt budget.
func (c *Coordinator) Run(ctx context.Context, sw Sweep, emit func(Update) error) error {
	points, err := sw.Scenario.Expand()
	if err != nil {
		return err
	}
	size := len(points)
	offset := sw.Offset
	if offset < 0 {
		offset = 0
	}
	if offset >= size {
		return nil
	}
	peers := c.cfg.Peers
	ranges := scenario.SplitSpan(offset, size-offset, len(peers)*c.cfg.ShardsPerPeer)
	tasks := make([]*shardTask, len(ranges))
	for i, r := range ranges {
		tasks[i] = &shardTask{idx: i, rng: r}
	}

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	st := &sweepState{
		sw: sw, runCtx: runCtx, cancel: cancel,
		m: &merger{
			next: offset, total: size, buf: make(map[int]Update),
			emit: emit, failFast: sw.Policy == pipeline.FailFast,
			stop: func() { cancel(errSweepStopped) }, metrics: c.cfg.Metrics,
		},
	}
	st.remaining.Store(int64(len(tasks)))
	st.queues = make([]chan *shardTask, len(peers))
	for i := range st.queues {
		st.queues[i] = make(chan *shardTask, len(tasks))
	}
	for _, t := range tasks {
		st.queues[c.affinity(points[t.rng.Offset])] <- t
	}

	for i := range peers {
		st.wg.Add(1)
		go func(peer int) {
			defer st.wg.Done()
			for {
				select {
				case <-runCtx.Done():
					return
				case t := <-st.queues[peer]:
					if !c.breakers[peer].Allow() && t.hops < len(peers) {
						// Breaker open: pass the shard along instead of
						// burning an attempt on a peer known broken. After a
						// full loop of rejections it runs anyway — the
						// attempt budget, not the breakers, decides when a
						// sweep with no healthy peers dies.
						t.hops++
						st.enqueue((peer+1)%len(peers), t, c.cfg.RerouteDelay)
						continue
					}
					t.hops = 0
					c.runShard(st, peer, t)
				}
			}
		}(i)
	}
	<-runCtx.Done()
	st.wg.Wait()

	cause := context.Cause(runCtx)
	switch {
	case errors.Is(cause, errSweepDone), errors.Is(cause, errSweepStopped):
		return nil
	case ctx.Err() != nil:
		return ctx.Err()
	default:
		return cause
	}
}

// runShard runs one attempt of a shard on a peer and handles its outcome:
// completion, reassignment to the next peer with backoff, or sweep failure
// when the budget is spent.
func (c *Coordinator) runShard(st *sweepState, peer int, t *shardTask) {
	attempt := t.failures + 1
	peerURL := c.cfg.Peers[peer]
	c.record(st.sw.JobID, t, peerURL, attempt, durable.ShardDispatched)
	if mt := c.cfg.Metrics; mt != nil {
		mt.InFlight.Inc()
	}
	err := c.streamShard(st.runCtx, st.sw, st.m, peer, t)
	if mt := c.cfg.Metrics; mt != nil {
		mt.InFlight.Dec()
	}
	if st.runCtx.Err() != nil {
		// The sweep ended (done, stopped, cancelled, or failed elsewhere)
		// while this attempt was in flight; its outcome no longer matters.
		return
	}
	if err == nil {
		c.breakers[peer].Success()
		c.record(st.sw.JobID, t, peerURL, attempt, durable.ShardDone)
		if mt := c.cfg.Metrics; mt != nil {
			mt.Shards.With(peerLabel(peerURL), durable.ShardDone).Inc()
			mt.PeerUp.With(peerLabel(peerURL)).Set(1)
		}
		if st.remaining.Add(-1) == 0 {
			st.cancel(errSweepDone)
		}
		return
	}

	t.failures++
	c.breakers[peer].Failure()
	c.record(st.sw.JobID, t, peerURL, attempt, durable.ShardFailed)
	if mt := c.cfg.Metrics; mt != nil {
		mt.Shards.With(peerLabel(peerURL), durable.ShardFailed).Inc()
		mt.PeerUp.With(peerLabel(peerURL)).Set(0)
	}
	var ee errEmit
	if errors.As(err, &ee) {
		st.cancel(fmt.Errorf("cluster: merging shard %d: %w", t.idx, ee.err))
		return
	}
	if t.failures >= c.cfg.MaxAttempts {
		st.cancel(fmt.Errorf("cluster: shard %d [%d,+%d) failed after %d attempt(s), last on %s: %w",
			t.idx, t.rng.Offset, t.rng.Count, t.failures, peerURL, err))
		return
	}
	if mt := c.cfg.Metrics; mt != nil {
		mt.Retries.Inc()
	}
	c.cfg.Log.Printf("cluster: shard %d attempt %d on %s failed (%v); reassigning", t.idx, attempt, peerURL, err)
	st.enqueue((peer+1)%len(st.queues), t, backoffFor(c.cfg.RetryBackoff, c.cfg.MaxBackoff, t.failures))
}

// streamShard runs one SSE attempt against a peer, merging results and
// advancing the shard's resume offset as in-order frames arrive. The
// request window starts at the resume offset, so retries after partial
// progress re-request only the remainder. The attempt runs under the
// adaptive shard deadline: a peer too slow for it fails the attempt and
// the shard is reassigned.
func (c *Coordinator) streamShard(ctx context.Context, sw Sweep, m *merger, peer int, t *shardTask) error {
	expected := t.rng.Offset + t.got
	window := t.rng.Count - t.got
	body, err := json.Marshal(struct {
		Scenario json.RawMessage `json:"scenario"`
		Offset   int             `json:"offset"`
		Limit    int             `json:"limit"`
	}{sw.Doc, expected, window})
	if err != nil {
		return errEmit{err} // malformed sweep doc: retrying cannot help
	}
	sctx, scancel := context.WithTimeout(ctx, c.shardDeadline(window))
	defer scancel()
	cli := &Client{
		HTTP: c.cfg.HTTP, Token: c.cfg.Token,
		Retries: c.cfg.ClientRetries, Backoff: c.cfg.ClientBackoff,
	}
	end := t.rng.Offset + t.rng.Count
	var doneCount int
	//lint:ignore determinism attempt start time paces the deadline EWMA only; merged results are ordered by index, never by wall clock
	last := time.Now()
	err = cli.Stream(sctx, c.cfg.Peers[peer]+"/v2/shards", body, func(ev Event) error {
		switch ev.Type {
		case "result":
			var res wireResult
			if uerr := json.Unmarshal(ev.Data, &res); uerr != nil {
				return BadFrameError{fmt.Errorf("cluster: bad result frame: %w", uerr)}
			}
			if res.Index != expected {
				return BadFrameError{fmt.Errorf("cluster: shard %d: point %d out of order (want %d)", t.idx, res.Index, expected)}
			}
			if merr := m.deliver(Update{Index: res.Index, Err: res.Error, Payload: res.Payload}); merr != nil {
				return merr
			}
			expected++
			t.got++
			//lint:ignore determinism inter-frame pacing feeds the deadline EWMA, not the merged result stream
			now := time.Now()
			c.rates.observe(peer, now.Sub(last).Seconds())
			last = now
		case "done":
			var d wireDone
			if uerr := json.Unmarshal(ev.Data, &d); uerr != nil {
				return BadFrameError{fmt.Errorf("cluster: bad done frame: %w", uerr)}
			}
			if d.Error != "" {
				return fmt.Errorf("cluster: worker failed shard: %s", d.Error)
			}
			doneCount = d.Count
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The worker's done frame counts this attempt's request window, not
	// the whole shard — an attempt resuming after partial progress
	// streams only the remainder.
	if expected != end || doneCount != window {
		return fmt.Errorf("cluster: shard %d short: got %d of %d point(s) (done frame said %d of %d)",
			t.idx, t.got, t.rng.Count, doneCount, window)
	}
	return nil
}

// record persists one shard transition, logging (not failing) on error.
func (c *Coordinator) record(job string, t *shardTask, peerURL string, attempt int, status string) {
	if c.cfg.Recorder == nil || job == "" {
		return
	}
	if err := c.cfg.Recorder.RecordShard(job, t.idx, t.rng.Offset, t.rng.Count, peerLabel(peerURL), attempt, status); err != nil {
		c.cfg.Log.Printf("cluster: recording shard %d %s: %v", t.idx, status, err)
	}
}

// affinity routes a shard (by its leading point) to a peer: a stable hash
// of the workload/device axes, so re-runs and related sweeps land the same
// axis combinations on the same workers and their pipeline memo,
// StreamCache, and shared-stream tiers stay hot.
func (c *Coordinator) affinity(p scenario.Point) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(p.Workload))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(p.Device.Name))
	return int(h.Sum32() % uint32(len(c.cfg.Peers)))
}

// peerLabel is the metric/WAL label for a peer URL (scheme stripped to
// bound label churn across config styles).
func peerLabel(u string) string {
	if _, rest, ok := strings.Cut(u, "://"); ok {
		return rest
	}
	return u
}

// merger folds concurrent shard results back into expansion order: updates
// buffer until their index is next, then emit in order. Stale duplicates
// (a reconnect replay overlapping points already merged) are dropped as a
// safety net; under FailFast the first erroring in-order point stops the
// sweep exactly where a single-node fail-fast stream would.
type merger struct {
	mu       sync.Mutex
	next     int
	total    int
	buf      map[int]Update
	emit     func(Update) error
	failFast bool
	stopped  bool
	stop     func()
	metrics  *Metrics
}

func (m *merger) deliver(u Update) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped || u.Index < m.next {
		return nil
	}
	if _, dup := m.buf[u.Index]; dup {
		return nil
	}
	m.buf[u.Index] = u
	for {
		nu, ok := m.buf[m.next]
		if !ok {
			break
		}
		delete(m.buf, m.next)
		if err := m.emit(nu); err != nil {
			m.stopped = true
			return errEmit{err}
		}
		m.next++
		if m.metrics != nil {
			m.metrics.Merged.Inc()
		}
		if nu.Err != "" && m.failFast {
			m.stopped = true
			m.stop()
			break
		}
	}
	if m.metrics != nil {
		m.metrics.MergeLag.Set(int64(len(m.buf)))
	}
	return nil
}

// PeerStatus is one peer's probed health.
type PeerStatus struct {
	Peer    string `json:"peer"`
	OK      bool   `json:"ok"`
	Err     string `json:"error,omitempty"`
	Breaker string `json:"breaker,omitempty"`
}

// PeerHealth probes every peer's /healthz concurrently (bounded by
// HealthTimeout) and updates the per-peer reachability gauge. A peer is OK
// only on HTTP 200 — reachable-but-degraded workers count against quorum.
// Probes ride the same circuit breakers as shard traffic: an open breaker
// skips the HTTP probe entirely (reporting the peer down with "breaker
// open"), and probe outcomes feed the breaker, so /healthz polling is what
// walks a recovering peer through half-open back to closed.
func (c *Coordinator) PeerHealth(ctx context.Context) []PeerStatus {
	out := make([]PeerStatus, len(c.cfg.Peers))
	var wg sync.WaitGroup
	for i, p := range c.cfg.Peers {
		wg.Add(1)
		go func(i int, peerURL string) {
			defer wg.Done()
			br := c.breakers[i]
			st := PeerStatus{Peer: peerLabel(peerURL)}
			if !br.Allow() {
				st.Err = "breaker open"
				st.Breaker = br.State().String()
				if mt := c.cfg.Metrics; mt != nil {
					mt.PeerUp.With(st.Peer).Set(0)
				}
				out[i] = st
				return
			}
			pctx, cancel := context.WithTimeout(ctx, c.cfg.HealthTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, peerURL+"/healthz", nil)
			if err == nil {
				var resp *http.Response
				resp, err = c.cfg.HTTP.Do(req)
				if err == nil {
					if resp.StatusCode == http.StatusOK {
						st.OK = true
					} else {
						st.Err = fmt.Sprintf("status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
			if err != nil {
				st.Err = err.Error()
			}
			if st.OK {
				br.Success()
			} else {
				br.Failure()
			}
			st.Breaker = br.State().String()
			if mt := c.cfg.Metrics; mt != nil {
				up := int64(0)
				if st.OK {
					up = 1
				}
				mt.PeerUp.With(st.Peer).Set(up)
			}
			out[i] = st
		}(i, p)
	}
	wg.Wait()
	return out
}

// Quorum reports whether a majority (n/2+1) of probed peers are OK.
func Quorum(sts []PeerStatus) bool {
	up := 0
	for _, st := range sts {
		if st.OK {
			up++
		}
	}
	return up >= len(sts)/2+1
}
