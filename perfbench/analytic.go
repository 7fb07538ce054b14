package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"delta/internal/backprop"
	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/perf"
	"delta/internal/pipeline"
	"delta/internal/prior"
	"delta/internal/roofline"
	"delta/internal/scenario"
	"delta/internal/spec"
	"delta/internal/traffic"
)

// analytic is the analytic-sweep workload: a Fig. 16-style design sweep
// decoded from a spec document and streamed through a fresh evaluator, by
// one closed-loop caller. An operation is one sweep; work is its points.
type analytic struct {
	o      options
	doc    []byte
	size   int
	digest uint64 // digest of a sweep verified point by point against direct model calls
	sweeps int
	rssMB  []float64 // peak RSS of each measured sweep
}

func newAnalytic(o options) *analytic { return &analytic{o: o} }

// analyticDoc builds the sweep document from the seed: the paper networks
// on the stock GPUs plus seeded scaled designs (the Fig. 16 axes), at two
// seeded batch sizes, under delta/prior/roofline inference and delta
// training.
func analyticDoc(seed int64, short bool) []byte {
	r := rand.New(rand.NewSource(seed))
	nets := []string{"alexnet", "vgg16", "googlenet", "resnet152"}
	stock := []string{"TITAN Xp", "P100", "V100"}
	// Batch 256 and an L2-bandwidth scale each make the models about 50%
	// slower, so the seed never picks them: every seed's sweep costs about
	// the same.
	axes := []string{"num_sm", "mac_per_sm", "dram_bw"}
	factors := []float64{1.5, 2, 3, 4}
	batches := []int{16, 32, 64, 128}
	nScaled, nBatches := 3, 2
	if short {
		nets, stock, nScaled, nBatches = nets[:1], stock[:1], 1, 1
	}
	type device struct {
		Name  string             `json:"name,omitempty"`
		Base  string             `json:"base,omitempty"`
		Scale map[string]float64 `json:"scale,omitempty"`
	}
	var devs []device
	for _, s := range stock {
		devs = append(devs, device{Name: s})
	}
	for i := 0; i < nScaled; i++ {
		devs = append(devs, device{
			Base:  stock[r.Intn(len(stock))],
			Scale: map[string]float64{axes[r.Intn(len(axes))]: factors[r.Intn(len(factors))]},
		})
	}
	r.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
	var workloads []map[string]string
	for _, n := range nets {
		workloads = append(workloads, map[string]string{"network": n})
	}
	doc, err := json.Marshal(map[string]any{
		"name":      fmt.Sprintf("analytic-sweep-%d", seed),
		"workloads": workloads,
		"devices":   devs,
		"batches":   batches[:nBatches],
		"models":    []string{"delta", "prior", "roofline"},
		"passes":    []string{"inference", "training"},
	})
	if err != nil {
		panic(err) // only maps, slices and strings: cannot fail
	}
	return doc
}

func (a *analytic) setup(ctx context.Context) error {
	a.doc = analyticDoc(a.o.seed, a.o.short)
	upds, _, err := a.sweep(ctx, nil, "warmup")
	if err != nil {
		return err
	}
	sc, err := spec.ReadScenario(bytes.NewReader(a.doc))
	if err != nil {
		return err
	}
	a.size = sc.Size()
	if bad := checkSweep(upds, a.size, newDirect(false)); bad != 0 {
		return fmt.Errorf("warm-up sweep: %d points differ from direct model calls", bad)
	}
	a.digest = digestSweep(upds)
	return nil
}

// sweep decodes the document and streams it through a fresh evaluator,
// returning the updates and the evaluator for its counters.
func (a *analytic) sweep(ctx context.Context, tr *tracer, id string) ([]pipeline.StreamUpdate, *pipeline.Evaluator, error) {
	root := tr.start("sweep", id, nil)
	defer root.end()
	sp := tr.start("spec.ReadScenario", id, root)
	sc, err := spec.ReadScenario(bytes.NewReader(a.doc))
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	ev := pipeline.New()
	sp = tr.start("pipeline.Stream", id, root)
	defer sp.end()
	ch, err := ev.Stream(ctx, sc, pipeline.WithErrorPolicy(pipeline.CollectPartial))
	if err != nil {
		return nil, nil, err
	}
	upds := make([]pipeline.StreamUpdate, 0, a.size)
	for upd := range ch {
		if tr != nil {
			tr.start("pipeline.point", id, sp).end()
		}
		upds = append(upds, upd)
	}
	return upds, ev, ctx.Err()
}

func (a *analytic) phase(ctx context.Context, d time.Duration, tr *tracer) (*phaseResult, error) {
	pr := &phaseResult{layer: map[string]float64{}}
	var hits, misses, streamAlloc, expandMs, expandAlloc []float64
	t0 := time.Now()
	for pr.attempted == 0 || time.Since(t0) < d {
		a.sweeps++
		id := fmt.Sprintf("sweep-%d", a.sweeps)
		pr.attempted++
		before := 0.0
		if tr != nil {
			before = allocMB()
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		start := time.Now()
		upds, ev, err := a.sweep(ctx, tr, id)
		if err != nil {
			return nil, err
		}
		pr.latMs = append(pr.latMs, float64(time.Since(start).Nanoseconds())/1e6)
		a.rssMB = append(a.rssMB, peakRSSMB("self"))
		pr.work += float64(len(upds))
		if len(upds) != a.size || digestSweep(upds) != a.digest {
			pr.failed++
		}
		if tr == nil {
			continue
		}
		// Measured after the operation's timer stopped.
		streamAlloc = append(streamAlloc, allocMB()-before)
		st := ev.Stats()
		hits = append(hits, float64(st.Hits))
		misses = append(misses, float64(st.Misses))
		sc, err := spec.ReadScenario(bytes.NewReader(a.doc))
		if err != nil {
			return nil, err
		}
		before = allocMB()
		sp := tr.start("scenario.Expand", id, nil)
		pts, err := sc.Expand()
		expandMs = append(expandMs, float64(sp.end().Nanoseconds())/1e6)
		expandAlloc = append(expandAlloc, allocMB()-before)
		if err != nil || len(pts) != a.size {
			return nil, fmt.Errorf("expand: %d points, %v", len(pts), err)
		}
	}
	pr.seconds = time.Since(t0).Seconds()
	if tr == nil {
		return pr, nil
	}
	l := pr.layer
	l["spec.decode_ms"] = median(tr.durationsMs("spec.ReadScenario"))
	l["scenario.expand_ms"] = median(expandMs)
	l["scenario.expand_alloc_mb"] = median(expandAlloc)
	l["scenario.points"] = float64(a.size)
	l["pipeline.stream_ms"] = median(tr.durationsMs("pipeline.Stream"))
	gaps := pointGapsUs(tr)
	l["pipeline.point_gap_us_p50"] = quantile(gaps, 0.5)
	l["pipeline.point_gap_us_p99"] = quantile(gaps, 0.99)
	l["pipeline.alloc_mb"] = median(streamAlloc)
	l["pipeline.memo_hits"] = median(hits)
	l["pipeline.memo_misses"] = median(misses)
	l["pipeline.memo_hit_ratio"] = ratio(median(hits), median(misses))
	return pr, nil
}

// pointGapsUs returns the intervals between consecutive points received
// from one stream, in microseconds.
func pointGapsUs(tr *tracer) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var gaps []float64
	last := map[string]int64{}
	for _, s := range tr.spans {
		if s.Name != "pipeline.point" {
			continue
		}
		if prev, ok := last[s.Trace]; ok {
			gaps = append(gaps, float64(s.StartNS-prev)/1e3)
		}
		last[s.Trace] = s.StartNS
	}
	return gaps
}

// finish times the analytical modules by calling them directly on one
// sweep's distinct layer requests, and re-verifies that sweep.
func (a *analytic) finish(ctx context.Context, tr *tracer, layer map[string]float64) (int, error) {
	if tr == nil {
		return 0, nil
	}
	upds, _, err := a.sweep(ctx, nil, "direct")
	if err != nil {
		return 0, err
	}
	dc := newDirect(true)
	bad := checkSweep(upds, a.size, dc)
	var modelMs float64
	for _, m := range []string{"traffic.model_ms", "perf.model_ms", "prior.model_ms", "roofline.model_ms", "backprop.step_ms"} {
		layer[m] = dc.ms[m]
		modelMs += dc.ms[m]
	}
	layer["pipeline.overhead_share"] = 1 - modelMs/layer["pipeline.stream_ms"]
	return bad, nil
}

// peakRSSMB is the median over measured sweeps of each sweep's peak RSS
// (see README.md for why not the peak of the whole run).
func (a *analytic) peakRSSMB() float64 { return median(a.rssMB) }
func (a *analytic) close()             {}

// layerKey identifies one distinct layer evaluation of a sweep.
type layerKey struct {
	layer     layers.Conv
	device    gpu.Device
	opt       traffic.Options
	model     string
	pass      string
	missRate  float64
	skipDgrad bool
}

// direct evaluates layer requests by calling the model packages directly,
// once per distinct request. With timing set it sums each module's time;
// the calls are too many and too short to record a span each.
type direct struct {
	timing bool
	memo   map[layerKey]pipeline.Result
	ms     map[string]float64
}

func newDirect(timing bool) *direct {
	return &direct{timing: timing, memo: map[layerKey]pipeline.Result{}, ms: map[string]float64{}}
}

// timed runs fn, charging its time to metric when timing.
func (dc *direct) timed(metric string, fn func()) {
	if !dc.timing {
		fn()
		return
	}
	start := time.Now()
	fn()
	dc.ms[metric] += float64(time.Since(start).Nanoseconds()) / 1e6
}

// eval answers one layer request the way the pipeline's contract says it
// must: the training step via backprop, roofline via roofline, and
// delta/prior inference via traffic (+ the prior's fixed miss rate) and
// perf.
func (dc *direct) eval(k layerKey) (pipeline.Result, error) {
	if r, ok := dc.memo[k]; ok {
		return r, nil
	}
	out := pipeline.Result{Layer: k.layer, Device: k.device.Name}
	var err error
	switch {
	case k.pass == scenario.PassTraining:
		var st backprop.Step
		dc.timed("backprop.step_ms", func() { st, err = backprop.ModelStep(k.layer, k.device, k.opt, k.skipDgrad) })
		out.Training, out.Seconds = st, st.Seconds()
	case k.model == scenario.ModelRoofline:
		var r roofline.Result
		dc.timed("roofline.model_ms", func() { r, err = roofline.Model(k.layer, k.device) })
		out.Roofline, out.Seconds = r, r.Seconds
	default:
		var est traffic.Estimate
		dc.timed("traffic.model_ms", func() { est, err = traffic.Model(k.layer, k.device, k.opt) })
		if err != nil {
			return out, err
		}
		if k.model == scenario.ModelPrior {
			dc.timed("prior.model_ms", func() { est = prior.FixMissRate(est, k.missRate) })
		}
		var r perf.Result
		dc.timed("perf.model_ms", func() { r, err = perf.Model(est, k.device) })
		out.Traffic, out.Perf, out.Seconds = est, r, r.Seconds
	}
	if err != nil {
		return out, err
	}
	dc.memo[k] = out
	return out, nil
}

// checkSweep compares every streamed point with direct model calls on the
// same inputs: each layer's seconds and traffic, and the network total
// summed in layer order, must be bit-equal. It also checks the count and
// the dense index order. It returns the number of points that differ.
func checkSweep(upds []pipeline.StreamUpdate, size int, dc *direct) int {
	bad := 0
	if len(upds) != size {
		bad += abs(size - len(upds))
	}
	for i, upd := range upds {
		p := upd.Point
		if upd.Err != nil || p.Index != i || len(upd.Network.Results) != len(p.Net.Layers) {
			bad++
			continue
		}
		mr := 0.0
		if p.Model == scenario.ModelPrior {
			mr = p.MissRate
			if mr == 0 {
				mr = 1
			}
		}
		total := 0.0
		ok := true
		for j, l := range p.Net.Layers {
			want, err := dc.eval(layerKey{
				layer: l, device: p.Device, opt: p.Options, model: p.Model, pass: p.Pass,
				missRate: mr, skipDgrad: p.Pass == scenario.PassTraining && j == 0,
			})
			got := upd.Network.Results[j]
			if err != nil || got.Seconds != want.Seconds || got.Traffic != want.Traffic {
				ok = false
				break
			}
			c := 1
			if p.Net.Counts != nil {
				c = p.Net.Counts[j]
			}
			total += want.Seconds * float64(c)
		}
		if !ok || total != upd.Network.Seconds {
			bad++
		}
	}
	return bad
}

// digestSweep hashes a sweep's results bit for bit.
func digestSweep(upds []pipeline.StreamUpdate) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, u := range upds {
		put(float64(u.Point.Index))
		put(u.Network.Seconds)
		if u.Err != nil {
			h.Write([]byte(u.Err.Error()))
		}
		for _, r := range u.Network.Results {
			put(r.Seconds)
			put(r.Traffic.L1Bytes)
			put(r.Traffic.L2Bytes)
			put(r.Traffic.DRAMBytes)
		}
	}
	return h.Sum64()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
