// Chaos-harness integration tests: drive real coordinator sweeps through
// internal/chaos's fault-injecting transport and assert the tentpole
// invariant — the merged fleet result stays byte-identical to a
// single-node run under every injected failure mode — plus the breaker,
// adaptive-deadline, and seeded-replay behaviors the harness exists to
// provoke.
package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"delta/internal/chaos"
	"delta/internal/obs"
	"delta/internal/pipeline"
	"delta/internal/scenario"
	"delta/internal/spec"
)

// oneAxisDoc has a single workload × device, so memo-key affinity routes
// every shard to one deterministic peer — the tests can aim faults at
// exactly the busy worker.
const oneAxisDoc = `{
  "workloads": [{"network": "alexnet"}],
  "devices": [{"name": "TITAN Xp"}],
  "batches": [8, 16],
  "models": ["delta", "prior"]
}`

func oneAxisScenario(t *testing.T) scenario.Scenario {
	t.Helper()
	sc, err := spec.ReadScenario(strings.NewReader(oneAxisDoc))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// healthWorker is newWorker plus a 200 /healthz, for tests that exercise
// the breaker-integrated health prober.
func healthWorker(t *testing.T) *httptest.Server {
	t.Helper()
	shards := &ShardHandler{Eval: pipeline.New(), Render: testRender}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.Handle("/", shards)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func hostOf(srvURL string) string { return strings.TrimPrefix(srvURL, "http://") }

// busyPeerIndex computes which of two peers affinity routes oneAxisDoc's
// shards to, using a throwaway coordinator (affinity depends only on the
// peer count and order).
func busyPeerIndex(t *testing.T, peers []string, sc scenario.Scenario) int {
	t.Helper()
	c, err := New(Config{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	points, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return c.affinity(points[0])
}

// TestChaosMidStreamCutResume: repeated mid-stream cuts on the shard path
// are survived by Last-Event-ID resume inside the attempt; the merged
// result stays byte-identical.
func TestChaosMidStreamCutResume(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultCut, Path: "/v2/shards", AfterFrames: 2, Count: 3},
	}})
	w := newWorker(t)
	sc := testScenario(t)
	c, err := New(Config{
		Peers: []string{w.URL}, ShardsPerPeer: 1,
		HTTP:         &http.Client{Transport: inj.Transport(nil)},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 10, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if ev := inj.Events(); len(ev) != 3 {
		t.Fatalf("chaos injected %d cuts, want 3: %v", len(ev), ev)
	}
}

// TestChaosCorruptFrameRetryable pins the satellite: a corrupted SSE frame
// is a retryable stream error — the client reconnects with Last-Event-ID
// at the last good frame and the worker re-serves a clean copy — not a
// terminal failure, and not a silently skipped point.
func TestChaosCorruptFrameRetryable(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultCorrupt, Path: "/v2/shards", AfterFrames: 3, Count: 1},
	}})
	w := newWorker(t)
	sc := testScenario(t)
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	c, err := New(Config{
		Peers: []string{w.URL}, ShardsPerPeer: 1,
		HTTP:         &http.Client{Transport: inj.Transport(nil)},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		Metrics: mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if ev := inj.Events(); len(ev) != 1 || !strings.Contains(ev[0], "corrupt") {
		t.Fatalf("chaos events = %v, want one corrupt injection", ev)
	}
	// The reconnect happened inside the SSE client: no shard attempt was
	// charged, so the shard-retry counter must not move.
	if mt.Retries.Value() != 0 {
		t.Errorf("corrupt frame burned a shard attempt (retries=%d); want in-stream reconnect", mt.Retries.Value())
	}
}

// TestChaosTruncatedFrameResume: a torn frame (stream ends mid-frame) is
// survived the same way — resume from the last complete frame.
func TestChaosTruncatedFrameResume(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultTruncate, Path: "/v2/shards", AfterFrames: 4, Count: 1},
	}})
	w := newWorker(t)
	sc := testScenario(t)
	c, err := New(Config{
		Peers: []string{w.URL}, ShardsPerPeer: 1,
		HTTP:         &http.Client{Transport: inj.Transport(nil)},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
}

// TestChaosPartialProgressReassign: an attempt that merges a few points
// and then dies (cut, then refused reconnects) is reassigned — and the
// retry attempt requests only the remainder, whose done-frame count is the
// remainder's size, not the whole shard's. Pins the short-shard
// false-positive that would otherwise burn the budget after any partial
// attempt.
func TestChaosPartialProgressReassign(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultCut, Path: "/v2/shards", AfterFrames: 2, Count: 1},
		{Fault: chaos.FaultRefuse, Path: "/v2/shards", AfterRequests: 1, Count: 2},
	}})
	w := newWorker(t)
	sc := testScenario(t)
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	rec := &fakeRecorder{}
	c, err := New(Config{
		Peers: []string{w.URL}, ShardsPerPeer: 1,
		HTTP:         &http.Client{Transport: inj.Transport(nil)},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 2, Metrics: mt, Recorder: rec, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{
		JobID: "chaos-partial", Doc: json.RawMessage(testDoc), Scenario: sc,
		Policy: pipeline.CollectPartial,
	})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if mt.Retries.Value() != 1 {
		t.Errorf("retries = %d, want exactly 1 (one partial attempt, one clean resume)", mt.Retries.Value())
	}
	var failed, done bool
	for _, r := range rec.all() {
		if strings.HasPrefix(r, "failed") {
			failed = true
		}
		if strings.HasPrefix(r, "done") {
			done = true
		}
	}
	if !failed || !done {
		t.Errorf("records missing failed+done sequence:\n%v", rec.all())
	}
}

// TestChaosFlappingPeerBreaker: a peer refusing every shard connection
// accumulates consecutive failures until its breaker opens; later shards
// hop to the healthy peer without burning attempt budget; the merged
// result stays byte-identical; and once the fault clears, a health probe
// walks the breaker half-open → closed.
func TestChaosFlappingPeerBreaker(t *testing.T) {
	wa, wb := healthWorker(t), healthWorker(t)
	peers := []string{wa.URL, wb.URL}
	sc := oneAxisScenario(t)
	busy := busyPeerIndex(t, peers, sc)
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultRefuse, Peer: hostOf(peers[busy]), Path: "/v2/shards"},
	}})
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	c, err := New(Config{
		Peers: peers, ShardsPerPeer: 2,
		HTTP:         &http.Client{Transport: inj.Transport(nil)},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 1, RerouteDelay: time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: 10 * time.Second,
		Metrics: mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(oneAxisDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))

	if got := c.breakers[busy].State(); got != BreakerOpen {
		t.Fatalf("busy peer breaker = %v, want open", got)
	}
	// Exactly BreakerThreshold attempts burned on the refusing peer; the
	// remaining shards rerouted through the open-breaker hop instead.
	if mt.Retries.Value() != 2 {
		t.Errorf("retries = %d, want 2 (threshold) before the breaker opened", mt.Retries.Value())
	}
	if got := obsGaugeVec(t, reg, "delta_cluster_breaker_state", hostOf(peers[busy])); got != int64(BreakerOpen) {
		t.Errorf("breaker gauge = %d, want %d", got, BreakerOpen)
	}

	// Fault cleared (path rules never matched /healthz): once the cooldown
	// elapses — simulated by advancing the breaker's clock — the health
	// prober's probe walks the breaker half-open → closed.
	c.breakers[busy].now = func() time.Time { return time.Now().Add(11 * time.Second) }
	sts := c.PeerHealth(context.Background())
	if !sts[busy].OK || sts[busy].Breaker != "closed" {
		t.Fatalf("post-cooldown probe: %+v, want ok+closed", sts[busy])
	}
	if !Quorum(sts) {
		t.Error("recovered fleet not at quorum")
	}
}

// TestChaosSlowPeerDeadline: a peer slowed far beyond the fleet's known
// pace (per-frame latency far above DeadlineFloor) has its attempts time
// out under the adaptive deadline; its shards are reassigned to the
// healthy peer, the sweep finishes far sooner than the slow peer could
// serve it, and the merged result stays byte-identical.
func TestChaosSlowPeerDeadline(t *testing.T) {
	wa, wb := healthWorker(t), healthWorker(t)
	peers := []string{wa.URL, wb.URL}
	sc := oneAxisScenario(t)
	busy := busyPeerIndex(t, peers, sc)
	const frameLatency = 2 * time.Second
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultLatency, Where: "frame", LatencyMS: int(frameLatency / time.Millisecond),
			Peer: hostOf(peers[busy]), Path: "/v2/shards"},
	}})
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	c, err := New(Config{
		Peers: peers, ShardsPerPeer: 1,
		HTTP:         &http.Client{Transport: inj.Transport(nil)},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		DeadlineFloor: 200 * time.Millisecond,
		Metrics:       mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A known fleet pace of 1ms per point: every attempt runs under the
	// adaptive deadline, clamped up to DeadlineFloor, from the start.
	for p := range peers {
		c.rates.observe(p, 0.001)
	}

	start := time.Now()
	checkMerged(t, runSweep(t, c, Sweep{Doc: json.RawMessage(oneAxisDoc), Scenario: sc, Policy: pipeline.CollectPartial}),
		singleNodeRef(t, sc))
	elapsed := time.Since(start)

	if mt.Retries.Value() < 1 {
		t.Fatal("no shard attempt on the slow peer timed out and was reassigned")
	}
	if mt.Deadline.Value() <= 0 {
		t.Error("adaptive deadline gauge never set despite a known pace")
	}
	// Unrescued, the slow peer serves every frame (4 results, 2 done
	// frames) at frameLatency each; the reassigned shards finish after
	// two DeadlineFloor timeouts.
	if elapsed > frameLatency {
		t.Errorf("sweep took %v; the deadline did not rescue the slow peer's shards", elapsed)
	}
}

// TestChaosSeededReplay: two sweeps with the same chaos seed inject the
// identical fault sequence and drive the identical shard
// dispatch/failure/done record log — the reproducibility contract.
func TestChaosSeededReplay(t *testing.T) {
	w := newWorker(t) // shared across runs so peer labels match
	sc := testScenario(t)
	run := func() ([]string, []string) {
		inj := chaos.MustNew(chaos.Spec{Seed: 2, Rules: []chaos.Rule{
			{Fault: chaos.FaultRefuse, Path: "/v2/shards", Prob: 0.4, Count: 4},
		}})
		rec := &fakeRecorder{}
		c, err := New(Config{
			Peers: []string{w.URL}, ShardsPerPeer: 2,
			HTTP:         &http.Client{Transport: inj.Transport(nil)},
			RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
			ClientRetries: 10, Recorder: rec, Log: quietLog(),
		})
		if err != nil {
			t.Fatal(err)
		}
		upds := runSweep(t, c, Sweep{
			JobID: "replay", Doc: json.RawMessage(testDoc), Scenario: sc,
			Policy: pipeline.CollectPartial,
		})
		checkMerged(t, upds, singleNodeRef(t, sc))
		return inj.Events(), rec.all()
	}
	ev1, rec1 := run()
	ev2, rec2 := run()
	if len(ev1) == 0 {
		t.Fatal("seeded rules never fired; replay test is vacuous")
	}
	if strings.Join(ev1, "|") != strings.Join(ev2, "|") {
		t.Fatalf("same seed, different fault sequences:\n%v\n%v", ev1, ev2)
	}
	if strings.Join(rec1, "|") != strings.Join(rec2, "|") {
		t.Fatalf("same seed, different shard record logs:\n%v\n%v", rec1, rec2)
	}
}

// obsGaugeVec scrapes one labeled gauge value out of the registry's text
// exposition (obs has no per-label read API).
func obsGaugeVec(t *testing.T, reg *obs.Registry, name, peer string) int64 {
	t.Helper()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, name+"{") && strings.Contains(line, `"`+peer+`"`) {
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s{peer=%q} not found", name, peer)
	return 0
}
