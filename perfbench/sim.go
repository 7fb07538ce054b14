package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"delta/internal/cnn"
	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/pipeline"
	"delta/internal/sim/engine"
	"delta/internal/stats"
	"delta/internal/traffic"
)

// sectorBytes is the simulator's sector size.
const sectorBytes = 32

// simValidate is the sim-validate workload: Fig. 11-style validation of
// the traffic model against the trace-driven simulator, one closed-loop
// caller. A pass simulates cnn.AllUniqueLayers(2) on each stock GPU, in a
// seeded order, through SimulateLayers (a fresh evaluator per device and
// pass); an operation is one layer on one device; work is millions of
// simulated L1 sectors.
type simValidate struct {
	o     options
	devs  []gpu.Device
	plan  [][]layers.Conv      // per device, in seeded order
	model [][]traffic.Estimate // traffic.Model per plan entry
	ref   [][]*engine.Result   // first successful simulation of each entry; nil until one succeeds
	check [][2]int             // (device, layer) pairs checked against the serial engine
	ops   int
	rssMB []float64 // peak RSS of each measured pass
}

func newSimValidate(o options) *simValidate { return &simValidate{o: o} }

// simPlan orders every unique layer in a seeded order per device, and
// picks the layers checked against the serial reference engine from the
// cheaper half (by modelled L1 traffic). The short mode keeps the cheapest
// quarter of the layers. The set of layers is the same for every seed, so
// the latency distribution is too.
func simPlan(seed int64, short bool) ([]gpu.Device, [][]layers.Conv, [][]traffic.Estimate, [][2]int, error) {
	r := rand.New(rand.NewSource(seed))
	all := cnn.AllUniqueLayers(2)
	devs := gpu.All()
	nCheck := 2
	if short {
		nCheck = 1
	}
	plan := make([][]layers.Conv, len(devs))
	model := make([][]traffic.Estimate, len(devs))
	var cheap [][2]int
	for di, d := range devs {
		ests := make([]traffic.Estimate, len(all))
		for i, l := range all {
			est, err := traffic.Model(l, d, traffic.Options{})
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("%s on %s: %w", l.Name, d.Name, err)
			}
			ests[i] = est
		}
		idx := make([]int, len(all))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return ests[idx[a]].L1Bytes < ests[idx[b]].L1Bytes })
		if short {
			idx = idx[:len(idx)/4]
		}
		mid := ests[idx[len(idx)/2]].L1Bytes
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for li, i := range idx {
			plan[di] = append(plan[di], all[i])
			model[di] = append(model[di], ests[i])
			if ests[i].L1Bytes <= mid {
				cheap = append(cheap, [2]int{di, li})
			}
		}
	}
	r.Shuffle(len(cheap), func(i, j int) { cheap[i], cheap[j] = cheap[j], cheap[i] })
	return devs, plan, model, cheap[:min(nCheck, len(cheap))], nil
}

func (s *simValidate) setup(ctx context.Context) error {
	var err error
	s.devs, s.plan, s.model, s.check, err = simPlan(s.o.seed, s.o.short)
	if err != nil {
		return err
	}
	s.ref = nil
	// Warm-up: each GPU's median layer by modelled L1 traffic (the same
	// layers for every seed) through a fresh evaluator.
	for di, d := range s.devs {
		order := make([]int, len(s.plan[di]))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return s.model[di][order[a]].L1Bytes < s.model[di][order[b]].L1Bytes })
		mid := order[len(order)/2]
		if _, err := pipeline.New().SimulateLayers(ctx, s.plan[di][mid:mid+1], engine.Config{Device: d}); err != nil {
			return err
		}
	}
	return nil
}

// pass simulates the whole plan once, one layer per operation. A layer
// that fails is counted in pr.failed and left nil in the result.
func (s *simValidate) pass(ctx context.Context, tr *tracer, pr *phaseResult) ([][]*engine.Result, pipeline.Stats, error) {
	out := make([][]*engine.Result, len(s.devs))
	var streams pipeline.Stats
	for di, d := range s.devs {
		ev := pipeline.New()
		cfg := engine.Config{Device: d}
		for li, l := range s.plan[di] {
			s.ops++
			id := fmt.Sprintf("layer-%d", s.ops)
			pr.attempted++
			start := time.Now()
			sp := tr.start("pipeline.SimulateLayers", id, nil)
			rs, err := ev.SimulateLayers(ctx, []layers.Conv{l}, cfg)
			sp.end()
			if err != nil {
				if ctx.Err() != nil {
					return nil, streams, ctx.Err()
				}
				pr.failed++
				out[di] = append(out[di], nil)
				continue
			}
			pr.latMs = append(pr.latMs, float64(time.Since(start).Nanoseconds())/1e6)
			pr.work += float64(rs[0].L1Stats.SectorAccesses) / 1e6
			if ref := s.refAt(di, li); ref != nil && !sameCounters(rs[0], *ref) {
				pr.failed++
			}
			out[di] = append(out[di], &rs[0])
		}
		st := ev.Stats()
		streams.StreamHits += st.StreamHits
		streams.StreamMisses += st.StreamMisses
		// Collect the finished evaluator's stream tier before the next
		// GPU starts, so the peak memory does not depend on GC timing.
		runtime.GC()
	}
	return out, streams, nil
}

func (s *simValidate) phase(ctx context.Context, d time.Duration, tr *tracer) (*phaseResult, error) {
	pr := &phaseResult{layer: map[string]float64{}}
	t0 := time.Now()
	for pr.attempted == 0 || time.Since(t0) < d {
		before := allocMB()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		res, streams, err := s.pass(ctx, tr, pr)
		if err != nil {
			return nil, err
		}
		s.rssMB = append(s.rssMB, peakRSSMB("self"))
		alloc := allocMB() - before
		s.keepRef(res)
		if tr != nil {
			simPassMetrics(pr.layer, res, streams)
			pr.layer["engine.alloc_mb"] = alloc
		}
	}
	pr.seconds = time.Since(t0).Seconds()
	return pr, nil
}

// refAt returns the reference simulation of plan entry (di, li), or nil.
func (s *simValidate) refAt(di, li int) *engine.Result {
	if s.ref == nil {
		return nil
	}
	return s.ref[di][li]
}

// keepRef makes each entry's first successful simulation its reference.
func (s *simValidate) keepRef(res [][]*engine.Result) {
	if s.ref == nil {
		s.ref = res
		return
	}
	for di := range res {
		for li, r := range res[di] {
			if s.ref[di][li] == nil {
				s.ref[di][li] = r
			}
		}
	}
}

// simPassMetrics records the exact counters of one pass; failed (nil)
// entries are left out.
func simPassMetrics(l map[string]float64, res [][]*engine.Result, streams pipeline.Stats) {
	var req, l1, l1hit, l2, l2hit, dram, dramW float64
	for _, dev := range res {
		for _, r := range dev {
			if r == nil {
				continue
			}
			req += float64(r.L1Requests)
			l1 += float64(r.L1Stats.SectorAccesses)
			l1hit += float64(r.L1Stats.SectorHits)
			l2 += float64(r.L2Stats.SectorAccesses)
			l2hit += float64(r.L2Stats.SectorHits)
			dram += r.DRAMBytes / sectorBytes
			dramW += r.DRAMWriteBytes / sectorBytes
		}
	}
	l["engine.l1_requests"] = req
	l["engine.l1_sectors"] = l1
	l["engine.l2_sectors"] = l2
	l["engine.dram_sectors"] = dram
	l["engine.dram_write_sectors"] = dramW
	l["cache.l1_hit_ratio"] = ratio(l1hit, l1-l1hit)
	l["cache.l2_hit_ratio"] = ratio(l2hit, l2-l2hit)
	l["trace.shared_hits"] = float64(streams.StreamHits)
	l["trace.shared_misses"] = float64(streams.StreamMisses)
	l["trace.shared_hit_ratio"] = ratio(float64(streams.StreamHits), float64(streams.StreamMisses))
}

// sameCounters reports whether two simulations of one layer agree on
// every counter.
func sameCounters(a, b engine.Result) bool {
	return a.L1Requests == b.L1Requests && a.L1Stats == b.L1Stats && a.L2Stats == b.L2Stats &&
		a.L1Bytes == b.L1Bytes && a.L2Bytes == b.L2Bytes && a.DRAMBytes == b.DRAMBytes &&
		a.DRAMWriteBytes == b.DRAMWriteBytes && a.StoreBytes == b.StoreBytes &&
		a.SimulatedCTAs == b.SimulatedCTAs && a.TotalCTAs == b.TotalCTAs
}

// gmaePct returns the model-vs-simulator GMAE per level (L1, L2, DRAM) over
// every simulated pair, no outliers dropped, in percent. Layers whose
// simulation failed (nil) have no pair; with no pair at all it returns 0.
func gmaePct(model [][]traffic.Estimate, sim [][]*engine.Result) ([3]float64, error) {
	var r [3][]float64
	for di := range model {
		for li, m := range model[di] {
			s := sim[di][li]
			if s == nil {
				continue
			}
			r[0] = append(r[0], m.L1Bytes/s.L1Bytes)
			r[1] = append(r[1], m.L2Bytes/s.L2Bytes)
			r[2] = append(r[2], m.DRAMBytes/s.DRAMBytes)
		}
	}
	var out [3]float64
	if len(r[0]) == 0 {
		return out, nil
	}
	for i := range r {
		g, err := stats.GMAE(r[i])
		if err != nil {
			return out, err
		}
		out[i] = 100 * g
	}
	return out, nil
}

// finish checks the seeded sample against the serial reference engine
// (Workers: 1). Traced, it also times direct engine.Run calls on the same
// sample and reports the accuracy of the model against the simulator.
func (s *simValidate) finish(ctx context.Context, tr *tracer, layer map[string]float64) (int, error) {
	bad := checkSerial(s.devs, s.plan, s.ref, s.check)
	if tr == nil {
		return bad, nil
	}
	g, err := gmaePct(s.model, s.ref)
	if err != nil {
		return 0, err
	}
	layer["model_gmae_l1_pct"], layer["model_gmae_l2_pct"], layer["model_gmae_dram_pct"] = g[0], g[1], g[2]
	var ms, sectors, runs float64
	for _, c := range s.check {
		if s.ref[c[0]][c[1]] == nil {
			continue // never simulated: already counted as failed
		}
		sp := tr.start("engine.Run", fmt.Sprintf("check-%d-%d", c[0], c[1]), nil)
		r, err := engine.Run(s.plan[c[0]][c[1]], engine.Config{Device: s.devs[c[0]]})
		took := float64(sp.end().Nanoseconds()) / 1e6
		if err != nil {
			return 0, err
		}
		ms, sectors, runs = ms+took, sectors+float64(r.L1Stats.SectorAccesses), runs+1
	}
	if runs > 0 {
		layer["engine.run_ms"] = ms / runs
		layer["engine.ns_per_l1_sector"] = ms * 1e6 / sectors
	}
	return bad, nil
}

// checkSerial re-simulates the sampled layers on the serial reference
// engine and counts those whose counters differ from the measured pass. A
// layer that never simulated is skipped: it is already counted as failed.
func checkSerial(devs []gpu.Device, plan [][]layers.Conv, ref [][]*engine.Result, sample [][2]int) int {
	bad := 0
	for _, c := range sample {
		want := ref[c[0]][c[1]]
		if want == nil {
			continue
		}
		r, err := engine.Run(plan[c[0]][c[1]], engine.Config{Device: devs[c[0]], Workers: 1})
		if err != nil || !sameCounters(r, *want) {
			bad++
		}
	}
	return bad
}

// peakRSSMB is the median over measured passes of each pass's peak RSS
// (see README.md for why not the peak of the whole run).
func (s *simValidate) peakRSSMB() float64 { return median(s.rssMB) }
func (s *simValidate) close()             {}
