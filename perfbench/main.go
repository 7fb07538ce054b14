// Command perfbench is the repository's benchmark: four workloads that
// drive the analytical model stack, the trace-driven simulator, the
// coordinator/worker fleet and the delta-server HTTP API, each checking
// its outputs for correctness while it measures.
//
// Usage (run.sh builds the binaries and passes -server-bin and -out):
//
//	perfbench -workload analytic-sweep -seed 1 -seconds 10 -trace 0
//
// A run sets the workload up several times (reporting the median set-up
// time), then measures for -seconds. With -trace 0 it reports the
// end-to-end metrics; with -trace 1 it measures half the time untraced and
// half traced, records spans around every call it makes into the
// repository's packages, writes them to <out>/spans-<workload>-<seed>.json
// and reports the per-module metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s is the
// median of these.
const setupRuns = 5

// options are the command-line inputs of one run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	outDir    string

	// short shrinks every workload's inputs so the package tests can run
	// each one end to end in a few seconds.
	short bool
}

// bench is one workload. setup may be called repeatedly: each call
// releases what the previous one started, builds the inputs from the seed
// again and runs one warm-up operation. phase measures for d; tr is nil in
// untraced phases. finish runs the output checks that need the whole run
// (reference comparisons) and adds the per-module metrics it owns.
// peakRSSMB gives the peak_rss_mb metric of the measured phases.
type bench interface {
	setup(ctx context.Context) error
	phase(ctx context.Context, d time.Duration, tr *tracer) (*phaseResult, error)
	finish(ctx context.Context, tr *tracer, layer map[string]float64) (mismatches int, err error)
	peakRSSMB() float64
	close()
}

// phaseResult is what one measured phase observed.
type phaseResult struct {
	// latMs holds one latency sample per operation, in milliseconds.
	latMs []float64

	// work is the workload's unit of work completed in the phase, and
	// seconds the time it took (work_per_s = work / seconds).
	work, seconds float64

	attempted, failed int

	// layer holds the per-module metrics measured in a traced phase.
	layer map[string]float64
}

// outcome is the result line of one run.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// HostProbeMs is the median of five host probes (hostProbeMs) after
	// the measured phase. Untraced, it goes to the human-readable lines
	// only.
	HostProbeMs float64 `json:"-"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newBench(o options) (bench, error) {
	switch o.workload {
	case "analytic-sweep":
		return newAnalytic(o), nil
	case "sim-validate":
		return newSimValidate(o), nil
	case "fleet-sim":
		return newFleet(o), nil
	case "serve-mixed":
		return newServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}

var workloadNames = []string{"analytic-sweep", "sim-validate", "fleet-sim", "serve-mixed"}

// run executes one benchmark run and returns its result line.
func run(ctx context.Context, o options) (*outcome, error) {
	b, err := newBench(o)
	if err != nil {
		return nil, err
	}
	defer b.close()
	return runBench(ctx, o, b)
}

// runBench sets b up, measures it and checks its outputs.
func runBench(ctx context.Context, o options, b bench) (*outcome, error) {
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		// Every set-up starts from a collected heap, so a collection
		// of the previous set-up's garbage is not charged to it.
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	d := time.Duration(o.seconds * float64(time.Second))
	var (
		tr  *tracer
		pr  *phaseResult
		err error
	)
	layer := map[string]float64{}
	attempted, failed := 0, 0
	if !o.trace {
		if pr, err = b.phase(ctx, d, nil); err != nil {
			return nil, err
		}
	} else {
		untraced, err := b.phase(ctx, d/2, nil)
		if err != nil {
			return nil, err
		}
		attempted, failed = untraced.attempted, untraced.failed
		tr = newTracer()
		if pr, err = b.phase(ctx, d/2, tr); err != nil {
			return nil, err
		}
		for k, v := range pr.layer {
			layer[k] = v
		}
		layer["bench.tracing_overhead_pct"] = 100 * (quantile(pr.latMs, 0.5)/quantile(untraced.latMs, 0.5) - 1)
	}
	attempted += pr.attempted
	failed += pr.failed
	// Read before finish, whose reference computations are not part of
	// the measured operation.
	rss := b.peakRSSMB()
	mismatches, err := b.finish(ctx, tr, layer)
	if err != nil {
		return nil, err
	}
	failed += mismatches
	if attempted == 0 {
		return nil, errors.New("no operation completed")
	}
	out := &outcome{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	// After the peak RSS was read: the probe's buffer must not count.
	var probe []float64
	for i := 0; i < 5; i++ {
		probe = append(probe, hostProbeMs())
	}
	out.HostProbeMs = median(probe)

	if !o.trace {
		e2e := map[string]float64{
			"setup_s":     median(setups),
			"peak_rss_mb": rss,
			"op_p50_ms":   quantile(pr.latMs, 0.5),
			"work_per_s":  pr.work / pr.seconds,
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
		return out, nil
	}
	layer["bench.error_ratio"] = float64(failed) / float64(attempted)
	layer["bench.host_probe_ms"] = out.HostProbeMs
	layer["bench.ops"] = float64(len(pr.latMs))
	layer["bench.op_p90_ms"] = quantile(pr.latMs, 0.9)
	for _, m := range perLayer {
		out.Metrics[m.name] = metricValue{Value: layer[m.name], Unit: m.unit}
	}
	if err := tr.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))); err != nil {
		return nil, err
	}
	return out, nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time of the run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-module metrics")
	flag.StringVar(&o.serverBin, "server-bin", "", "delta-server binary (serve-mixed)")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for scratch data and span files")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	printHuman(o, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printHuman prints every metric by name with its unit, one a line, ahead
// of the JSON result line.
func printHuman(o options, res *outcome) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%g trace=%v attempted=%d failed=%d host_probe_ms=%.3f\n",
		o.workload, o.seed, o.seconds, o.trace, res.Attempted, res.Failed, res.HostProbeMs)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
