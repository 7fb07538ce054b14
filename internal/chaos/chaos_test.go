package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// sseBody writes n SSE result frames plus a done frame, the wire shape
// internal/cluster's worker produces.
func sseBody(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "event: result\nid: %d\ndata: {\"index\": %d, \"payload\": \"p%d\"}\n\n", i, i, i)
	}
	fmt.Fprintf(&b, "event: done\ndata: {\"count\": %d}\n\n", n)
	return b.String()
}

func sseServer(t *testing.T, frames int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		body := sseBody(frames)
		for _, frame := range strings.SplitAfter(body, "\n\n") {
			if frame == "" {
				continue
			}
			io.WriteString(w, frame)
			fl.Flush()
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, cl *http.Client, url string) (int, string, error) {
	t.Helper()
	res, err := cl.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	return res.StatusCode, string(b), err
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec(`{"seed": 7, "rules": [{"fault": "refuse", "count": 2}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 7 || len(spec.Rules) != 1 || spec.Rules[0].Fault != FaultRefuse {
		t.Fatalf("parsed %+v", spec)
	}

	// Bare rule-list shorthand.
	spec, err = ParseSpec(`[{"fault": "latency", "latency_ms": 5}]`)
	if err != nil || len(spec.Rules) != 1 {
		t.Fatalf("shorthand: %v %+v", err, spec)
	}

	// @file spelling.
	f := t.TempDir() + "/spec.json"
	os.WriteFile(f, []byte(`{"rules": [{"fault": "cut", "path": "/v2/shards"}]}`), 0o644)
	spec, err = ParseSpec("@" + f)
	if err != nil || spec.Rules[0].Path != "/v2/shards" {
		t.Fatalf("@file: %v %+v", err, spec)
	}

	for _, bad := range []string{
		`{"rules": []}`,
		`{"rules": [{"fault": "nope"}]}`,
		`{"rules": [{"fault": "latency"}]}`,
		`{"rules": [{"fault": "refuse", "prob": 1.5}]}`,
		`@/does/not/exist`,
		`{broken`,
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSeedResolution(t *testing.T) {
	if got := Seed(42); got != 42 {
		t.Fatalf("explicit seed: %d", got)
	}
	t.Setenv(SeedEnv, "99")
	if got := Seed(0); got != 99 {
		t.Fatalf("env seed: %d", got)
	}
	if got := Seed(42); got != 42 {
		t.Fatalf("explicit beats env: %d", got)
	}
	t.Setenv(SeedEnv, "not-a-number")
	if got := Seed(0); got != 1 {
		t.Fatalf("fallback seed: %d", got)
	}
}

func TestTransportRefuseAndStatus(t *testing.T) {
	srv := sseServer(t, 2)
	inj := MustNew(Spec{Rules: []Rule{
		{Fault: FaultRefuse, Count: 1},
		{Fault: FaultStatus, AfterRequests: 1, Count: 1, Status: 502},
	}})
	cl := &http.Client{Transport: inj.Transport(nil)}

	if _, _, err := get(t, cl, srv.URL); err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("want refusal, got %v", err)
	}
	code, body, err := get(t, cl, srv.URL)
	if err != nil || code != 502 {
		t.Fatalf("want synthetic 502, got %d %v", code, err)
	}
	if !strings.Contains(body, "chaos") {
		t.Fatalf("synthetic body %q", body)
	}
	if code, _, err := get(t, cl, srv.URL); err != nil || code != 200 {
		t.Fatalf("rules exhausted, want clean 200, got %d %v", code, err)
	}
	ev := inj.Events()
	if len(ev) != 2 || !strings.Contains(ev[0], "refuse") || !strings.Contains(ev[1], "status=502") {
		t.Fatalf("events %v", ev)
	}
}

func TestTransportCut(t *testing.T) {
	srv := sseServer(t, 4)
	inj := MustNew(Spec{Rules: []Rule{{Fault: FaultCut, AfterFrames: 2}}})
	cl := &http.Client{Transport: inj.Transport(nil)}

	res, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != io.ErrUnexpectedEOF && !strings.Contains(fmt.Sprint(err), "unexpected EOF") {
		t.Fatalf("want unexpected EOF, got %v", err)
	}
	got := string(b)
	if n := strings.Count(got, "\n\n"); n != 2 {
		t.Fatalf("want 2 complete frames before cut, got %d:\n%s", n, got)
	}
}

func TestTransportTruncate(t *testing.T) {
	srv := sseServer(t, 3)
	inj := MustNew(Spec{Rules: []Rule{{Fault: FaultTruncate, AfterFrames: 1}}})
	cl := &http.Client{Transport: inj.Transport(nil)}

	res, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("truncate should read as clean EOF, got %v", err)
	}
	got := string(b)
	if n := strings.Count(got, "\n\n"); n != 1 {
		t.Fatalf("want 1 complete frame then torn tail, got %d:\n%s", n, got)
	}
	if strings.HasSuffix(got, "\n\n") {
		t.Fatalf("tail not torn:\n%s", got)
	}
}

func TestTransportCorrupt(t *testing.T) {
	srv := sseServer(t, 3)
	inj := MustNew(Spec{Rules: []Rule{{Fault: FaultCorrupt, AfterFrames: 1}}})
	cl := &http.Client{Transport: inj.Transport(nil)}

	_, got, err := get(t, cl, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	clean := sseBody(3)
	if got == clean {
		t.Fatal("stream passed through uncorrupted")
	}
	if len(got) != len(clean) {
		t.Fatalf("corruption changed length: %d != %d", len(got), len(clean))
	}
	frames := strings.SplitAfter(got, "\n\n")
	if frames[0] != strings.SplitAfter(clean, "\n\n")[0] {
		t.Fatal("frame 0 touched")
	}
	if frames[1] == strings.SplitAfter(clean, "\n\n")[1] {
		t.Fatal("frame 1 not corrupted")
	}
}

func TestTransportLatencySites(t *testing.T) {
	srv := sseServer(t, 2)
	inj := MustNew(Spec{Rules: []Rule{
		{Fault: FaultLatency, Where: "dial", LatencyMS: 7, Count: 1},
		{Fault: FaultLatency, Where: "frame", LatencyMS: 3, AfterRequests: 1},
	}})
	var mu sync.Mutex
	var slept []time.Duration
	inj.sleep = func(d time.Duration) {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
	}
	cl := &http.Client{Transport: inj.Transport(nil)}

	if _, _, err := get(t, cl, srv.URL); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 7*time.Millisecond {
		t.Fatalf("dial latency slept %v", slept)
	}
	slept = nil
	if _, _, err := get(t, cl, srv.URL); err != nil {
		t.Fatal(err)
	}
	// 2 result frames + 1 done frame, each delayed.
	if len(slept) != 3 || slept[0] != 3*time.Millisecond {
		t.Fatalf("frame latency slept %v", slept)
	}
}

// TestTransportFrameLatencyCancelled: a request whose context ends while
// a frame is held back by injected latency fails at once and receives no
// delayed frame, as over a slow link.
func TestTransportFrameLatencyCancelled(t *testing.T) {
	srv := sseServer(t, 2)
	inj := MustNew(Spec{Rules: []Rule{{Fault: FaultLatency, Where: "frame", LatencyMS: 10000}}})
	cl := &http.Client{Transport: inj.Transport(nil)}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read error = %v, want the request's deadline", err)
	}
	if len(b) != 0 {
		t.Fatalf("cancelled request received delayed bytes %q", b)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancelled request held for %v", took)
	}
}

func TestSchedulingWindows(t *testing.T) {
	inj := MustNew(Spec{Rules: []Rule{
		{Fault: FaultRefuse, AfterRequests: 2, ForRequests: 2},
	}})
	var fired []bool
	for i := 0; i < 6; i++ {
		fired = append(fired, len(inj.plan("w1", "/x", false)) > 0)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("request %d: fired=%v want %v (%v)", i, fired[i], want[i], fired)
		}
	}

	// Elapsed-time window via the now seam.
	inj = MustNew(Spec{Rules: []Rule{{Fault: FaultRefuse, AfterMS: 100, ForMS: 100}}})
	base := time.Unix(0, 0)
	inj.start = base
	for i, tc := range []struct {
		at   time.Duration
		want bool
	}{{0, false}, {50 * time.Millisecond, false}, {150 * time.Millisecond, true}, {250 * time.Millisecond, false}} {
		inj.now = func() time.Time { return base.Add(tc.at) }
		if got := len(inj.plan("", "", false)) > 0; got != tc.want {
			t.Fatalf("probe %d at %v: fired=%v want %v", i, tc.at, got, tc.want)
		}
	}
}

func TestSelectorMatching(t *testing.T) {
	inj := MustNew(Spec{Rules: []Rule{
		{Fault: FaultRefuse, Peer: "18091", Path: "/v2/shards"},
	}})
	if len(inj.plan("127.0.0.1:18092", "/v2/shards", false)) != 0 {
		t.Fatal("wrong peer matched")
	}
	if len(inj.plan("127.0.0.1:18091", "/healthz", false)) != 0 {
		t.Fatal("wrong path matched")
	}
	if len(inj.plan("127.0.0.1:18091", "/v2/shards", false)) != 1 {
		t.Fatal("exact match missed")
	}
}

func TestSeededReplayIdentical(t *testing.T) {
	run := func() []string {
		inj := MustNew(Spec{Seed: 1234, Rules: []Rule{
			{Fault: FaultRefuse, Prob: 0.5},
			{Fault: FaultStatus, Prob: 0.3},
		}})
		for i := 0; i < 40; i++ {
			inj.plan("w1", "/v2/shards", false)
		}
		return inj.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events fired at all")
	}
	if len(a) != len(b) {
		t.Fatalf("replay lengths diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}

	// A different seed must yield a different schedule.
	inj := MustNew(Spec{Seed: 4321, Rules: []Rule{
		{Fault: FaultRefuse, Prob: 0.5},
		{Fault: FaultStatus, Prob: 0.3},
	}})
	for i := 0; i < 40; i++ {
		inj.plan("w1", "/v2/shards", false)
	}
	c := inj.Events()
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestListenerFaults(t *testing.T) {
	inj := MustNew(Spec{Rules: []Rule{
		{Fault: FaultRefuse, Count: 1},
		{Fault: FaultStatus, AfterRequests: 1, Count: 1},
		{Fault: FaultCut, Path: "/stream", AfterFrames: 1, Count: 1},
	}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stream" {
			io.WriteString(w, "ok")
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		for _, frame := range strings.SplitAfter(sseBody(4), "\n\n") {
			if frame == "" {
				continue
			}
			io.WriteString(w, frame)
			fl.Flush()
		}
	})}
	go srv.Serve(inj.Listener(ln))
	t.Cleanup(func() { srv.Close() })
	base := "http://" + ln.Addr().String()

	// Disable keep-alive so each request opens a fresh connection and
	// the accept-level rules see them in order.
	cl := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	// Request 1: accept-level refusal — the conn dies before HTTP.
	if _, _, err := get(t, cl, base+"/plain"); err == nil {
		t.Fatal("refused accept still answered")
	}
	// Request 2: raw synthetic 503.
	code, body, err := get(t, cl, base+"/plain")
	if err != nil || code != 503 || !strings.Contains(body, "chaos") {
		t.Fatalf("want raw 503, got %d %q %v", code, body, err)
	}
	// Request 3: clean — rule budget spent, path rule doesn't match.
	if code, body, err := get(t, cl, base+"/plain"); err != nil || code != 200 || body != "ok" {
		t.Fatalf("want clean 200, got %d %q %v", code, body, err)
	}
	// Request 4: stream cut after 1 frame on the matched path.
	res, err := cl.Get(base + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	b, rerr := io.ReadAll(res.Body)
	res.Body.Close()
	if rerr == nil {
		t.Fatalf("cut stream read cleanly: %q", b)
	}
	if n := strings.Count(string(b), "\n\n"); n > 1 {
		t.Fatalf("want at most 1 frame before cut, got %d", n)
	}
}

func TestFrameFilterAcrossChunks(t *testing.T) {
	// Frames arriving byte by byte must still be counted and corrupted
	// exactly once.
	ff := &frameFilter{plan: streamPlan{cutAfter: -1, truncAt: -1, corruptAt: 1}, sleep: func(time.Duration) error { return nil }}
	in := sseBody(3)
	var out []byte
	for i := 0; i < len(in); i++ {
		o, err := ff.process([]byte{in[i]}, i == len(in)-1)
		if err != nil {
			t.Fatalf("unexpected filter error %v", err)
		}
		out = append(out, o...)
	}
	if string(out) == in {
		t.Fatal("no corruption applied")
	}
	if len(out) != len(in) {
		t.Fatalf("length changed %d -> %d", len(in), len(out))
	}
}
