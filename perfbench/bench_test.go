package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"delta/internal/cluster"
	"delta/internal/pipeline"
	"delta/internal/spec"
)

// serverBin is a delta-server binary built once for the serve-mixed tests.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	serverBin = filepath.Join(dir, "delta-server")
	cmd := exec.Command("go", "build", "-o", serverBin, "./cmd/delta-server")
	cmd.Dir = ".."
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		panic("building delta-server: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func shortOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 7, seconds: 0.4, trace: trace,
		serverBin: serverBin, outDir: t.TempDir(), short: true,
	}
}

// TestShortRuns runs every workload end to end, untraced and traced, and
// checks that each reports every metric it owes and passes its checks.
func TestShortRuns(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := shortOptions(t, w, trace)
			res, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", w, trace, m.name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, v.Value)
				}
			}
			if trace {
				spans := filepath.Join(o.outDir, "spans-"+w+"-7.json")
				if _, err := os.Stat(spans); err != nil {
					t.Errorf("%s: span file: %v", w, err)
				}
			}
		}
	}
}

// TestSweepCheckCatchesOnePoint perturbs one streamed point of an
// analytic sweep by one ulp and expects the check to catch it.
func TestSweepCheckCatchesOnePoint(t *testing.T) {
	a := newAnalytic(shortOptions(t, "analytic-sweep", false))
	if err := a.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	upds, _, err := a.sweep(context.Background(), nil, "t")
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkSweep(upds, a.size, newDirect(false)); bad != 0 {
		t.Fatalf("unmodified sweep: %d bad points", bad)
	}
	if digestSweep(upds) != a.digest {
		t.Fatal("unmodified sweep: digest differs")
	}
	last := len(upds) - 1
	rs := append([]pipeline.Result(nil), upds[last].Network.Results...)
	rs[0].Seconds = math.Nextafter(rs[0].Seconds, 1)
	upds[last].Network.Results = rs
	if bad := checkSweep(upds, a.size, newDirect(false)); bad != 1 {
		t.Errorf("perturbed sweep: %d bad points, want 1", bad)
	}
	if digestSweep(upds) == a.digest {
		t.Error("perturbed sweep: digest unchanged")
	}
	if bad := checkSweep(upds[:last], a.size, newDirect(false)); bad == 0 {
		t.Error("short sweep passed the count check")
	}
}

// TestSerialCheckCatchesOneCounter perturbs one simulator counter and
// expects the serial-reference check to catch it.
func TestSerialCheckCatchesOneCounter(t *testing.T) {
	s := newSimValidate(shortOptions(t, "sim-validate", false))
	if err := s.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	pr := &phaseResult{}
	res, _, err := s.pass(context.Background(), nil, pr)
	if err != nil || pr.failed != 0 {
		t.Fatalf("pass: %v, %d failed", err, pr.failed)
	}
	if bad := checkSerial(s.devs, s.plan, res, s.check); bad != 0 {
		t.Fatalf("unmodified pass: %d mismatches", bad)
	}
	c := s.check[0]
	res[c[0]][c[1]].L2Stats.SectorMisses++
	if bad := checkSerial(s.devs, s.plan, res, s.check); bad != 1 {
		t.Errorf("perturbed counter: %d mismatches, want 1", bad)
	}
}

// TestFleetCheckCatchesOnePayload perturbs one byte of one merged fleet
// point and expects the single-node comparison to catch it.
func TestFleetCheckCatchesOnePayload(t *testing.T) {
	f := newFleet(shortOptions(t, "fleet-sim", false))
	defer f.close()
	ctx := context.Background()
	if err := f.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := f.phase(ctx, time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	good := f.digests[0]
	if bad, err := f.finish(ctx, nil, nil); err != nil || bad != 0 {
		t.Fatalf("unmodified sweep: %d mismatches, %v", bad, err)
	}
	i := strings.Index(good, `"l1_sectors":`) + len(`"l1_sectors":`)
	f.digests = []string{good[:i] + "9" + good[i:]}
	if bad, err := f.finish(ctx, nil, nil); err != nil || bad != 1 {
		t.Errorf("perturbed payload: %d mismatches, %v; want 1", bad, err)
	}
}

// failingFleet is the fleet-sim workload with its coordinator pointed at
// a worker that rejects every shard.
type failingFleet struct {
	*fleet
	url string
}

func (f failingFleet) setup(ctx context.Context) error {
	if err := f.fleet.setup(ctx); err != nil {
		return err
	}
	var err error
	f.coord, err = cluster.New(cluster.Config{
		Peers:        []string{f.url},
		RetryBackoff: time.Millisecond,
		MaxBackoff:   time.Millisecond,
		Log:          log.New(io.Discard, "", 0),
	})
	return err
}

// TestFleetRunEndsWhenEverySweepFails runs fleet-sim against a worker that
// fails every shard and expects the run to end on time with every sweep
// counted as failed.
func TestFleetRunEndsWhenEverySweepFails(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer down.Close()
	o := shortOptions(t, "fleet-sim", false)
	f := failingFleet{newFleet(o), down.URL}
	defer f.close()
	start := time.Now()
	res, err := runBench(context.Background(), o, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d, want every sweep failed", res.Correct, res.Attempted, res.Failed)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("run took %v", took)
	}
}

// TestSimFailedLayers makes layers invalid so their simulation fails. A
// failed layer must count as failed and stay out of the reference, the
// accuracy figures and the serial check; a phase in which every layer
// fails must still end.
func TestSimFailedLayers(t *testing.T) {
	ctx := context.Background()
	s := newSimValidate(shortOptions(t, "sim-validate", false))
	if err := s.setup(ctx); err != nil {
		t.Fatal(err)
	}
	s.plan[0][0].B = 0
	pr, err := s.phase(ctx, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.failed != 1 || len(pr.latMs) != pr.attempted-1 {
		t.Errorf("one bad layer: attempted=%d failed=%d samples=%d", pr.attempted, pr.failed, len(pr.latMs))
	}
	if s.ref[0][0] != nil {
		t.Error("failed layer has a reference result")
	}
	g, err := gmaePct(s.model, s.ref)
	if err != nil || g[0] <= 0 || math.IsInf(g[0], 0) {
		t.Errorf("GMAE with a failed layer: %v, %v", g, err)
	}
	if bad := checkSerial(s.devs, s.plan, s.ref, [][2]int{{0, 0}}); bad != 0 {
		t.Errorf("serial check of a failed layer: %d mismatches", bad)
	}

	for di := range s.plan {
		for li := range s.plan[di] {
			s.plan[di][li].B = 0
		}
	}
	s.ref = nil
	if pr, err = s.phase(ctx, 10*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if pr.attempted == 0 || pr.failed != pr.attempted || len(pr.latMs) != 0 {
		t.Errorf("every layer bad: attempted=%d failed=%d samples=%d", pr.attempted, pr.failed, len(pr.latMs))
	}
	if g, err := gmaePct(s.model, s.ref); err != nil || g != [3]float64{} {
		t.Errorf("GMAE with no pair: %v, %v", g, err)
	}
}

// TestServeChecksCatchPerturbations perturbs one /v1 number and one SSE
// frame and expects the serve-mixed checks to catch each.
func TestServeChecksCatchPerturbations(t *testing.T) {
	ctx := context.Background()
	reads, _, err := serveInputs(ctx, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	rq := reads[0]
	body, err := json.Marshal(map[string]any{
		"total_seconds": rq.want.Seconds,
		"layers": func() []map[string]float64 {
			var ls []map[string]float64
			for _, r := range rq.want.Results {
				ls = append(ls, map[string]float64{"seconds": r.Seconds, "l1_bytes": r.Traffic.L1Bytes,
					"l2_bytes": r.Traffic.L2Bytes, "dram_bytes": r.Traffic.DRAMBytes})
			}
			return ls
		}(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !checkV1(body, rq.want) {
		t.Fatal("unmodified /v1 body rejected")
	}
	off := rq.want
	off.Seconds = math.Nextafter(off.Seconds, 0)
	if checkV1(body, off) {
		t.Error("perturbed /v1 total accepted")
	}

	stream := "id: 1\nevent: result\ndata: {}\n\n" +
		": keep-alive\n\n" +
		"id: 2\nevent: result\ndata: {}\n\n" +
		"id: 2\nevent: done\ndata: {\"status\":\"done\",\"done\":2,\"total\":2}\n\n"
	frames, _, err := readSSE(strings.NewReader(stream), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSSE(frames); err != nil {
		t.Fatalf("unmodified stream rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"gap":       strings.Replace(stream, "id: 2\nevent: result", "id: 3\nevent: result", 1),
		"lost":      strings.Replace(stream, "id: 2\nevent: result\ndata: {}\n\n", "", 1),
		"count":     strings.Replace(stream, `"done":2`, `"done":1`, 1),
		"truncated": stream[:strings.Index(stream, "id: 2\nevent: done")],
	} {
		frames, _, err := readSSE(strings.NewReader(bad), time.Now())
		if err == nil && checkSSE(frames) == nil {
			t.Errorf("%s: perturbed stream accepted", name)
		}
	}
}

// TestServeJobFollowsSSE runs one real job against a server and checks
// its frames end to end.
func TestServeJobFollowsSSE(t *testing.T) {
	s, err := newServe(shortOptions(t, "serve-mixed", false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := s.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.job(context.Background(), nil, "t", s.jobDocs[1]); err != nil {
		t.Fatal(err)
	}
}

// TestDocsDecode checks that the generated documents are valid specs and
// that the same seed gives the same inputs.
func TestDocsDecode(t *testing.T) {
	for _, doc := range [][]byte{analyticDoc(3, false), fleetDoc(3, false)} {
		if _, err := spec.ReadScenario(bytes.NewReader(doc)); err != nil {
			t.Errorf("%s: %v", doc, err)
		}
	}
	if !bytes.Equal(analyticDoc(3, false), analyticDoc(3, false)) || bytes.Equal(analyticDoc(3, false), analyticDoc(4, false)) {
		t.Error("analytic document is not a function of the seed")
	}
	if !bytes.Equal(fleetDoc(3, false), fleetDoc(3, false)) {
		t.Error("fleet document is not a function of the seed")
	}
}

func TestCoveredNS(t *testing.T) {
	kids := []span{{StartNS: 10, EndNS: 20}, {StartNS: 15, EndNS: 30}, {StartNS: 40, EndNS: 50}, {StartNS: 90, EndNS: 120}}
	if got := coveredNS(0, 100, kids); got != 20+10+10 {
		t.Errorf("covered = %d, want 40", got)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names the workloads
// and metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
