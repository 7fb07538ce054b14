package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"delta/internal/durable"
	"delta/internal/obs"
	"delta/internal/pipeline"
	"delta/internal/scenario"
	"delta/internal/spec"
)

// testDoc is the sweep document the coordinator forwards to workers:
// 2 workloads × 2 devices × 2 batches × 2 models = 16 points.
const testDoc = `{
  "name": "fleet",
  "workloads": [{"network": "alexnet"}, {"network": "googlenet"}],
  "devices": [{"name": "TITAN Xp"}, {"name": "V100"}],
  "batches": [8, 16],
  "models": ["delta", "prior"]
}`

func testScenario(t *testing.T) scenario.Scenario {
	t.Helper()
	sc, err := spec.ReadScenario(strings.NewReader(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// testRender is the shared payload renderer: enough structure to make
// byte-identity meaningful without dragging in the server's full shape.
func testRender(u pipeline.StreamUpdate) (json.RawMessage, error) {
	return json.Marshal(map[string]any{
		"index":   u.Point.Index,
		"done":    u.Done,
		"total":   u.Total,
		"device":  u.Point.Device.Name,
		"seconds": u.Network.Seconds,
	})
}

func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(&ShardHandler{Eval: pipeline.New(), Render: testRender})
	t.Cleanup(srv.Close)
	return srv
}

// singleNodeRef renders the whole scenario through one evaluator — the
// byte-identity reference for every distributed test.
func singleNodeRef(t *testing.T, sc scenario.Scenario) []json.RawMessage {
	t.Helper()
	upds, err := pipeline.New().RunScenario(context.Background(), sc,
		pipeline.WithErrorPolicy(pipeline.CollectPartial))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]json.RawMessage, len(upds))
	for i, u := range upds {
		buf, err := testRender(u)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = buf
	}
	return out
}

func quietLog() *log.Logger { return log.New(os.Stderr, "", 0) }

// dropAfter aborts the connection before writing the (n+1)-th result
// frame, simulating a mid-shard connection loss with whole frames on the
// wire (writeFrame emits one frame per Write call).
type dropAfter struct {
	http.ResponseWriter
	remaining *int
}

func (d *dropAfter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("event: result")) {
		*d.remaining--
		if *d.remaining < 0 {
			panic(http.ErrAbortHandler)
		}
	}
	return d.ResponseWriter.Write(p)
}

func (d *dropAfter) Flush() {
	if f, ok := d.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// droppingWorker serves shards but aborts each connection after perConn
// result frames; requests counts connections served.
func droppingWorker(t *testing.T, perConn int, requests *atomic.Int64) *httptest.Server {
	t.Helper()
	h := &ShardHandler{Eval: pipeline.New(), Render: testRender}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		budget := perConn
		h.ServeHTTP(&dropAfter{w, &budget}, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestShardHandlerWindow: the worker streams exactly the requested window
// in order, with per-shard ids and a terminal done frame.
func TestShardHandlerWindow(t *testing.T) {
	srv := newWorker(t)
	body := fmt.Sprintf(`{"scenario": %s, "offset": 5, "limit": 4}`, testDoc)
	resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var results []wireResult
	var ids []int
	var done *wireDone
	if err := parseSSE(resp.Body, func(ev Event) error {
		switch ev.Type {
		case "result":
			var r wireResult
			if err := json.Unmarshal(ev.Data, &r); err != nil {
				return err
			}
			results = append(results, r)
			ids = append(ids, ev.ID)
		case "done":
			done = &wireDone{}
			if err := json.Unmarshal(ev.Data, done); err != nil {
				return err
			}
			return errStreamEnd
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	for i, r := range results {
		if r.Index != 5+i || ids[i] != i+1 {
			t.Errorf("frame %d: index %d id %d, want index %d id %d", i, r.Index, ids[i], 5+i, i+1)
		}
		if r.Error != "" || len(r.Payload) == 0 {
			t.Errorf("frame %d: err %q payload %d bytes", i, r.Error, len(r.Payload))
		}
	}
	if done == nil || done.Count != 4 || done.Error != "" {
		t.Errorf("done = %+v", done)
	}
}

// TestShardHandlerRejects pins the pre-stream error statuses.
func TestShardHandlerRejects(t *testing.T) {
	srv := newWorker(t)
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"window past end", fmt.Sprintf(`{"scenario": %s, "offset": 10, "limit": 10}`, testDoc), http.StatusBadRequest},
		{"missing scenario", `{"offset": 0, "limit": 1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}

// TestClientReconnect drives the SSE client against the real shard handler
// through repeatedly dropped connections: every result arrives exactly
// once via Last-Event-ID resume, and the worker sees multiple connections.
func TestClientReconnect(t *testing.T) {
	var requests atomic.Int64
	srv := droppingWorker(t, 5, &requests)
	body := fmt.Sprintf(`{"scenario": %s, "offset": 0, "limit": 16}`, testDoc)
	cli := &Client{Retries: 10, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	var got []wireResult
	err := cli.Stream(context.Background(), srv.URL, []byte(body), func(ev Event) error {
		if ev.Type == "result" {
			var r wireResult
			if err := json.Unmarshal(ev.Data, &r); err != nil {
				return err
			}
			got = append(got, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("%d results, want 16", len(got))
	}
	for i, r := range got {
		if r.Index != i {
			t.Errorf("result %d: index %d (duplicate or gap)", i, r.Index)
		}
	}
	if n := requests.Load(); n < 3 {
		t.Errorf("worker saw %d connection(s); drops did not force reconnects", n)
	}
}

// TestClientTerminalStatus: 4xx answers are not retried.
func TestClientTerminalStatus(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "bad shard", http.StatusBadRequest)
	}))
	defer srv.Close()
	cli := &Client{Retries: 5, Backoff: time.Millisecond}
	err := cli.Stream(context.Background(), srv.URL, []byte(`{}`), func(Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("err = %v", err)
	}
	if requests.Load() != 1 {
		t.Errorf("4xx retried %d times", requests.Load()-1)
	}
}

// TestParseSSE pins the frame grammar: comments, multi-line data, default
// event type, id tracking.
func TestParseSSE(t *testing.T) {
	in := ": keep-alive\n\nid: 3\nevent: result\ndata: {\"a\":1}\n\ndata: x\ndata: y\n\n"
	var evs []Event
	if err := parseSSE(strings.NewReader(in), func(ev Event) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	if evs[0].ID != 3 || evs[0].Type != "result" || string(evs[0].Data) != `{"a":1}` {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Type != "message" || string(evs[1].Data) != "x\ny" {
		t.Errorf("event 1 = %+v", evs[1])
	}
}

// FuzzParseSSE feeds parseSSE arbitrary peer bytes: it must never panic,
// and every frame it emits, re-serialized with the worker's writeFrame,
// must parse back to the same Event. writeFrame carries its payload as
// JSON, so a frame whose data is not JSON is only checked for not
// panicking, and the expected data is the payload as writeFrame encodes
// it (compacted, HTML-escaped) — identical for the worker's own frames.
func FuzzParseSSE(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var evs []Event
		_ = parseSSE(bytes.NewReader(in), func(ev Event) error {
			evs = append(evs, ev)
			return nil
		})
		for _, ev := range evs {
			if ev.Type == "" {
				t.Fatalf("emitted event with no type: %+v", ev)
			}
			var frame bytes.Buffer
			if err := writeFrame(&frame, ev.ID, ev.Type, json.RawMessage(ev.Data)); err != nil {
				continue // data is not JSON: writeFrame cannot carry it
			}
			data, _ := json.Marshal(json.RawMessage(ev.Data))
			want := Event{ID: ev.ID, Type: ev.Type, Data: data}
			wire := frame.String()
			var got []Event
			if err := parseSSE(&frame, func(ev Event) error {
				got = append(got, ev)
				return nil
			}); err != nil {
				t.Fatalf("re-parsing %q: %v", wire, err)
			}
			if len(got) != 1 || got[0].ID != want.ID || got[0].Type != want.Type || !bytes.Equal(got[0].Data, want.Data) {
				t.Fatalf("frame %q parsed back as %+v, want id %d type %q data %q", wire, got, want.ID, want.Type, want.Data)
			}
		}
	})
}

// fakeRecorder captures shard lifecycle records.
type fakeRecorder struct {
	mu   sync.Mutex
	recs []string
}

func (f *fakeRecorder) RecordShard(job string, shard, offset, count int, peer string, attempt int, status string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recs = append(f.recs, fmt.Sprintf("%s/%d@%d+%d a%d %s", status, shard, offset, count, attempt, peer))
	return nil
}

func (f *fakeRecorder) all() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.recs...)
}

// runSweep runs a coordinator sweep and collects the merged updates.
func runSweep(t *testing.T, c *Coordinator, sw Sweep) []Update {
	t.Helper()
	var upds []Update
	if err := c.Run(context.Background(), sw, func(u Update) error {
		upds = append(upds, u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return upds
}

// checkMerged asserts the merged updates are the dense [0, len(ref))
// prefix with payloads byte-identical to the single-node reference.
func checkMerged(t *testing.T, upds []Update, ref []json.RawMessage) {
	t.Helper()
	if len(upds) != len(ref) {
		t.Fatalf("%d merged updates, want %d", len(upds), len(ref))
	}
	for i, u := range upds {
		if u.Index != i {
			t.Fatalf("update %d: index %d (duplicate, gap, or disorder)", i, u.Index)
		}
		if u.Err != "" {
			t.Errorf("point %d failed: %s", i, u.Err)
		}
		if !bytes.Equal(u.Payload, ref[i]) {
			t.Errorf("point %d payload diverged from single-node run:\n fleet: %s\nsingle: %s", i, u.Payload, ref[i])
		}
	}
}

// TestCoordinatorBitIdentical: a 2-worker sweep merges byte-identical to a
// single-node run, and the fleet metrics move.
func TestCoordinatorBitIdentical(t *testing.T) {
	a, b := newWorker(t), newWorker(t)
	sc := testScenario(t)
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	rec := &fakeRecorder{}
	c, err := New(Config{
		Peers: []string{a.URL, b.URL}, ShardsPerPeer: 3,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		Metrics: mt, Recorder: rec, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{
		JobID: "j1", Doc: json.RawMessage(testDoc), Scenario: sc,
		Policy: pipeline.CollectPartial,
	})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if got := mt.Merged.Value(); got != 16 {
		t.Errorf("points merged metric = %d, want 16", got)
	}
	if got := mt.InFlight.Value(); got != 0 {
		t.Errorf("in-flight gauge = %d after sweep", got)
	}
	dispatched, done := 0, 0
	for _, r := range rec.all() {
		if strings.HasPrefix(r, durable.ShardDispatched) {
			dispatched++
		}
		if strings.HasPrefix(r, durable.ShardDone) {
			done++
		}
	}
	if dispatched != 6 || done != 6 {
		t.Errorf("shard records: %d dispatched, %d done, want 6/6\n%v", dispatched, done, rec.all())
	}
}

// TestCoordinatorResumeAcrossDrops: one worker keeps dropping connections
// mid-shard; Last-Event-ID resume still yields every point exactly once,
// byte-identical.
func TestCoordinatorResumeAcrossDrops(t *testing.T) {
	var requests atomic.Int64
	a := newWorker(t)
	b := droppingWorker(t, 1, &requests)
	sc := testScenario(t)
	c, err := New(Config{
		Peers: []string{a.URL, b.URL}, ShardsPerPeer: 2,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 20, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if requests.Load() < 2 {
		t.Error("dropping worker saw a single connection; resume path untested")
	}
}

// TestCoordinatorReassignsDeadPeer: a peer that refuses every connection
// loses its shards to the surviving peer — the sweep completes with no
// duplicated or missing points and the retry counter moves.
func TestCoordinatorReassignsDeadPeer(t *testing.T) {
	a := newWorker(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connections now refused
	sc := testScenario(t)
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	rec := &fakeRecorder{}
	c, err := New(Config{
		Peers: []string{a.URL, dead.URL}, ShardsPerPeer: 2,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 1, Metrics: mt, Recorder: rec, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{
		JobID: "j2", Doc: json.RawMessage(testDoc), Scenario: sc,
		Policy: pipeline.CollectPartial,
	})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if mt.Retries.Value() == 0 {
		t.Error("retry counter did not move despite a dead peer")
	}
	failed := false
	for _, r := range rec.all() {
		if strings.HasPrefix(r, durable.ShardFailed) {
			failed = true
		}
	}
	if !failed {
		t.Errorf("no failed shard record for the dead peer:\n%v", rec.all())
	}
}

// TestCoordinatorExhaustsRetries: with every peer dead, Run fails with the
// shard's attempt budget spent instead of hanging.
func TestCoordinatorExhaustsRetries(t *testing.T) {
	d1 := httptest.NewServer(http.NotFoundHandler())
	d1.Close()
	d2 := httptest.NewServer(http.NotFoundHandler())
	d2.Close()
	c, err := New(Config{
		Peers: []string{d1.URL, d2.URL}, ShardsPerPeer: 1, MaxAttempts: 2,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 1, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(context.Background(), Sweep{
		Doc: json.RawMessage(testDoc), Scenario: testScenario(t),
		Policy: pipeline.CollectPartial,
	}, func(Update) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "failed after") {
		t.Fatalf("err = %v, want exhausted-attempts error", err)
	}
}

// failDoc puts a training-invalid explicit workload first: its point fails
// at evaluation (non-square dgrad filter) while later alexnet points
// succeed — the fail-fast prefix shape.
const failDoc = `{
  "workloads": [
    {"name": "badtrain", "layers": [
      {"b": 4, "ci": 8, "hi": 12, "wi": 12, "co": 8, "hf": 3, "wf": 3, "stride": 1, "pad": 1},
      {"b": 4, "ci": 8, "hi": 12, "wi": 12, "co": 8, "hf": 3, "wf": 5, "stride": 1, "pad": 2}
    ]},
    {"network": "alexnet"}
  ],
  "devices": [{"name": "TITAN Xp"}, {"name": "V100"}],
  "batches": [8],
  "passes": ["training"]
}`

// TestCoordinatorFailFastPrefix: under FailFast the merged stream stops
// exactly where a single-node fail-fast sweep stops, and Run returns nil
// (the point error rides in the last update).
func TestCoordinatorFailFastPrefix(t *testing.T) {
	sc, err := spec.ReadScenario(strings.NewReader(failDoc))
	if err != nil {
		t.Fatal(err)
	}
	ref, rerr := pipeline.New().RunScenario(context.Background(), sc)
	if rerr == nil {
		t.Fatal("reference fail-fast run did not fail")
	}
	a, b := newWorker(t), newWorker(t)
	c, err := New(Config{
		Peers: []string{a.URL, b.URL}, ShardsPerPeer: 2,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(failDoc), Scenario: sc, Policy: pipeline.FailFast})
	if len(upds) != len(ref) {
		t.Fatalf("fail-fast merged %d updates, single-node emitted %d", len(upds), len(ref))
	}
	last := upds[len(upds)-1]
	if last.Err == "" || !strings.Contains(last.Err, "non-square") {
		t.Errorf("last update error = %q, want the non-square filter error", last.Err)
	}
	for i, u := range upds {
		if u.Index != ref[i].Point.Index {
			t.Errorf("update %d: index %d, want %d", i, u.Index, ref[i].Point.Index)
		}
	}
}

// TestCoordinatorResumeOffset: a sweep resumed at offset k dispatches only
// [k, size) and merges it identically to the tail of the reference.
func TestCoordinatorResumeOffset(t *testing.T) {
	a := newWorker(t)
	sc := testScenario(t)
	c, err := New(Config{Peers: []string{a.URL}, ShardsPerPeer: 2, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{
		Doc: json.RawMessage(testDoc), Scenario: sc, Offset: 11,
		Policy: pipeline.CollectPartial,
	})
	ref := singleNodeRef(t, sc)[11:]
	if len(upds) != len(ref) {
		t.Fatalf("%d updates, want %d", len(upds), len(ref))
	}
	for i, u := range upds {
		if u.Index != 11+i || !bytes.Equal(u.Payload, ref[i]) {
			t.Errorf("update %d (index %d) diverged from single-node tail", i, u.Index)
		}
	}
	// An offset at or past the end is a no-op sweep.
	if got := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Offset: 16}); len(got) != 0 {
		t.Errorf("full-offset sweep emitted %d updates", len(got))
	}
}

// TestAffinityStable: the same workload/device coordinates always route to
// the same peer, across coordinators with identical peer lists.
func TestAffinityStable(t *testing.T) {
	sc := testScenario(t)
	points, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Coordinator {
		c, err := New(Config{Peers: []string{"h1:1", "h2:1", "h3:1"}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := mk(), mk()
	byAxis := map[string]int{}
	for _, p := range points {
		key := p.Workload + "/" + p.Device.Name
		got := c1.affinity(p)
		if got != c2.affinity(p) {
			t.Fatalf("affinity unstable for %s", key)
		}
		if prev, ok := byAxis[key]; ok && prev != got {
			t.Errorf("axis %s routed to peers %d and %d", key, prev, got)
		}
		byAxis[key] = got
	}
}

// TestPeerHealthQuorum probes a mixed fleet and pins the quorum rule.
func TestPeerHealthQuorum(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer up.Close()
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()

	c, err := New(Config{Peers: []string{up.URL, down.URL}, HealthTimeout: time.Second, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	sts := c.PeerHealth(context.Background())
	if len(sts) != 2 || !sts[0].OK || sts[1].OK {
		t.Fatalf("statuses = %+v", sts)
	}
	if Quorum(sts) {
		t.Error("1 of 2 peers up reported as quorum (majority of 2 is 2)")
	}

	c3, err := New(Config{Peers: []string{up.URL, up.URL, down.URL}, HealthTimeout: time.Second, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	if !Quorum(c3.PeerHealth(context.Background())) {
		t.Error("2 of 3 peers up not a quorum")
	}
}
