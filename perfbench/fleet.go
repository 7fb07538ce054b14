package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"delta/internal/cluster"
	"delta/internal/obs"
	"delta/internal/pipeline"
	"delta/internal/scenario"
	"delta/internal/sim/engine"
	"delta/internal/spec"
)

// fleetPeers is the in-process worker count of the fleet-sim workload.
const fleetPeers = 2

// fleet is the fleet-sim workload: an L2-design simulation sweep through a
// coordinator and two ShardHandler workers on loopback, one closed-loop
// caller. An operation is one fleet sweep (fresh worker evaluators each
// time); work is its points.
type fleet struct {
	o       options
	doc     []byte
	sc      scenario.Scenario
	peers   []*fleetPeer
	servers []*httptest.Server
	coord   *cluster.Coordinator
	reg     *obs.Registry

	sweeps  int       // measured sweeps, for trace ids
	runs    int       // coordinator runs since the registry was created
	digests []string  // one per measured sweep, checked in finish
	rssMB   []float64 // peak RSS of each measured sweep
}

func newFleet(o options) *fleet { return &fleet{o: o} }

// fleetPeer wraps a worker's ShardHandler to time its busy periods and
// count the bytes it writes. Each sweep swaps in a fresh handler.
type fleetPeer struct {
	mu     sync.Mutex
	h      *cluster.ShardHandler
	busyNS atomic.Int64
	bytes  atomic.Int64
}

func (p *fleetPeer) reset() {
	p.mu.Lock()
	p.h = &cluster.ShardHandler{Eval: pipeline.New(), Render: renderPoint}
	p.mu.Unlock()
	p.busyNS.Store(0)
}

func (p *fleetPeer) eval() *pipeline.Evaluator {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.h.Eval
}

func (p *fleetPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	h := p.h
	p.mu.Unlock()
	start := time.Now()
	h.ServeHTTP(&countingWriter{ResponseWriter: w, n: &p.bytes}, r)
	p.busyNS.Add(time.Since(start).Nanoseconds())
}

// countingWriter counts response bytes; it forwards Flush, which the
// shard stream requires.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingWriter) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// simPayload is the rendered result of one point: every counter of every
// simulated layer (or the total of an analytical point).
type simPayload struct {
	Seconds float64            `json:"seconds,omitempty"`
	Layers  []simLayerCounters `json:"layers,omitempty"`
}

type simLayerCounters struct {
	L1Requests     uint64  `json:"l1_requests"`
	L1Sectors      uint64  `json:"l1_sectors"`
	L1Hits         uint64  `json:"l1_hits"`
	L2Sectors      uint64  `json:"l2_sectors"`
	L2Hits         uint64  `json:"l2_hits"`
	DRAMBytes      float64 `json:"dram_bytes"`
	DRAMWriteBytes float64 `json:"dram_write_bytes"`
}

// renderPoint is the workers' result renderer, also applied to the
// single-node reference so the two can be compared byte for byte.
func renderPoint(upd pipeline.StreamUpdate) (json.RawMessage, error) {
	p := simPayload{Seconds: upd.Network.Seconds}
	for _, r := range upd.Sim {
		p.Layers = append(p.Layers, simLayerCounters{
			L1Requests: r.L1Requests, L1Sectors: r.L1Stats.SectorAccesses, L1Hits: r.L1Stats.SectorHits,
			L2Sectors: r.L2Stats.SectorAccesses, L2Hits: r.L2Stats.SectorHits,
			DRAMBytes: r.DRAMBytes, DRAMWriteBytes: r.DRAMWriteBytes,
		})
	}
	return json.Marshal(p)
}

// fleetDoc builds the L2-design sweep from the seed: AlexNet and GoogLeNet
// at batch 1 on a TITAN Xp and a V100 whose L2 capacities are seeded,
// under 4-, 8- and 16-way L2s in a seeded order (which moves points
// between shards). Every layer is cut to its first CTA wave to keep a
// sweep short.
func fleetDoc(seed int64, short bool) []byte {
	r := rand.New(rand.NewSource(seed))
	nets := []string{"alexnet", "googlenet"}
	// Smaller L2s make the simulation slower (under 3 MB by about 25%),
	// which would make the sweep time depend on the seed.
	capacities := []float64{6, 8}
	// Every sweep simulates all three associativities: a seeded pair
	// without the cheap 4-way L2 cost about 20% more, and 32-way lookups
	// are slower still.
	ways := []int{4, 8, 16}
	if short {
		nets = nets[:1]
	}
	r.Shuffle(len(ways), func(i, j int) { ways[i], ways[j] = ways[j], ways[i] })
	if short {
		ways = ways[:1]
	}
	var cfgs []map[string]int
	for _, w := range ways {
		cfgs = append(cfgs, map[string]int{"l2_ways": w, "max_waves": 1})
	}
	var workloads []map[string]string
	for _, n := range nets {
		workloads = append(workloads, map[string]string{"network": n})
	}
	doc, err := json.Marshal(map[string]any{
		"name":      fmt.Sprintf("fleet-sim-%d", seed),
		"workloads": workloads,
		"devices": []map[string]any{
			{"spec": map[string]any{"base": "TITAN Xp", "l2_size_mb": capacities[r.Intn(len(capacities))]}},
			{"spec": map[string]any{"base": "V100", "l2_size_mb": capacities[r.Intn(len(capacities))]}},
		},
		"batches":     []int{1},
		"sim_configs": cfgs,
	})
	if err != nil {
		panic(err) // only maps, slices and strings: cannot fail
	}
	return doc
}

func (f *fleet) setup(ctx context.Context) error {
	f.close()
	f.doc = fleetDoc(f.o.seed, f.o.short)
	sc, err := spec.ReadScenario(bytes.NewReader(f.doc))
	if err != nil {
		return err
	}
	f.sc = sc
	f.peers, f.servers = nil, nil
	urls := make([]string, fleetPeers)
	for i := range urls {
		p := &fleetPeer{}
		p.reset()
		ts := httptest.NewServer(p)
		f.peers = append(f.peers, p)
		f.servers = append(f.servers, ts)
		urls[i] = ts.URL
	}
	f.reg = obs.NewRegistry()
	f.runs = 0
	f.coord, err = cluster.New(cluster.Config{
		Peers:   urls,
		Metrics: cluster.NewMetrics(f.reg),
		Log:     log.New(io.Discard, "", 0),
	})
	if err != nil {
		return err
	}
	_, err = f.sweep(ctx, nil, "warmup")
	return err
}

// fleetSweep is what one distributed sweep observed.
type fleetSweep struct {
	ms           float64 // coordinator run time
	payloads     []json.RawMessage
	firstPointMs float64
	busyMs       []float64
	hits, misses float64
	rssMB        float64 // peak RSS of the process during the sweep
}

// sweep runs the document once through the coordinator on fresh worker
// evaluators.
func (f *fleet) sweep(ctx context.Context, tr *tracer, id string) (*fleetSweep, error) {
	for _, p := range f.peers {
		p.reset()
	}
	// Collect the previous sweep's evaluators first, so the peak memory
	// does not depend on GC timing.
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	out := &fleetSweep{}
	f.runs++
	start := time.Now()
	sp := tr.start("cluster.Coordinator.Run", id, nil)
	err := f.coord.Run(ctx, cluster.Sweep{
		Doc: f.doc, Scenario: f.sc, Policy: pipeline.CollectPartial,
	}, func(u cluster.Update) error {
		if len(out.payloads) == 0 {
			out.firstPointMs = float64(time.Since(start).Nanoseconds()) / 1e6
		}
		if u.Index != len(out.payloads) || u.Err != "" {
			return fmt.Errorf("point %d: index %d, error %q", len(out.payloads), u.Index, u.Err)
		}
		out.payloads = append(out.payloads, u.Payload)
		return nil
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	out.ms = float64(time.Since(start).Nanoseconds()) / 1e6
	out.rssMB = peakRSSMB("self")
	for _, p := range f.peers {
		out.busyMs = append(out.busyMs, float64(p.busyNS.Load())/1e6)
		st := p.eval().Stats()
		out.hits += float64(st.StreamHits)
		out.misses += float64(st.StreamMisses)
	}
	return out, nil
}

func (f *fleet) phase(ctx context.Context, d time.Duration, tr *tracer) (*phaseResult, error) {
	pr := &phaseResult{layer: map[string]float64{}}
	var first, busyMax, busyMin, imbalance, overhead, hits, misses []float64
	bytes0 := f.wireBytes()
	points := 0
	t0 := time.Now()
	for pr.attempted == 0 || time.Since(t0) < d {
		f.sweeps++
		pr.attempted++
		sw, err := f.sweep(ctx, tr, fmt.Sprintf("sweep-%d", f.sweeps))
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			pr.failed++
			continue
		}
		ms := sw.ms
		pr.latMs = append(pr.latMs, ms)
		pr.work += float64(len(sw.payloads))
		points += len(sw.payloads)
		f.digests = append(f.digests, joinPayloads(sw.payloads))
		f.rssMB = append(f.rssMB, sw.rssMB)
		hi, lo := sw.busyMs[0], sw.busyMs[0]
		for _, b := range sw.busyMs[1:] {
			hi, lo = max(hi, b), min(lo, b)
		}
		first = append(first, sw.firstPointMs)
		busyMax, busyMin = append(busyMax, hi), append(busyMin, lo)
		imbalance = append(imbalance, (hi-lo)/hi)
		overhead = append(overhead, ms-hi)
		hits, misses = append(hits, sw.hits), append(misses, sw.misses)
	}
	pr.seconds = time.Since(t0).Seconds()
	if tr == nil {
		return pr, nil
	}
	l := pr.layer
	l["cluster.run_ms"] = median(tr.durationsMs("cluster.Coordinator.Run"))
	l["cluster.peer_busy_ms_max"] = median(busyMax)
	l["cluster.peer_busy_ms_min"] = median(busyMin)
	l["cluster.peer_imbalance"] = median(imbalance)
	l["cluster.overhead_ms"] = median(overhead)
	l["cluster.first_point_ms"] = median(first)
	l["cluster.wire_bytes_per_point"] = float64(f.wireBytes()-bytes0) / float64(points)
	l["trace.shared_hits"] = median(hits)
	l["trace.shared_misses"] = median(misses)
	l["trace.shared_hit_ratio"] = ratio(median(hits), median(misses))
	return pr, nil
}

func (f *fleet) wireBytes() int64 {
	var n int64
	for _, p := range f.peers {
		n += p.bytes.Load()
	}
	return n
}

// finish runs the same document single-node and checks every measured
// fleet sweep against it byte for byte.
func (f *fleet) finish(ctx context.Context, tr *tracer, layer map[string]float64) (int, error) {
	sp := tr.start("pipeline.RunScenario", "single-node", nil)
	upds, err := pipeline.New().RunScenario(ctx, f.sc, pipeline.WithErrorPolicy(pipeline.CollectPartial))
	sp.end()
	if err != nil {
		return 0, err
	}
	var ref []json.RawMessage
	var sims [][]*engine.Result
	for _, u := range upds {
		p, err := renderPoint(u)
		if err != nil {
			return 0, err
		}
		ref = append(ref, p)
		var point []*engine.Result
		for i := range u.Sim {
			point = append(point, &u.Sim[i])
		}
		sims = append(sims, point)
	}
	want := joinPayloads(ref)
	bad := 0
	for _, d := range f.digests {
		if d != want {
			bad++
		}
	}
	if tr == nil {
		return bad, nil
	}
	streams := pipeline.Stats{}
	hits, misses := layer["trace.shared_hits"], layer["trace.shared_misses"]
	simPassMetrics(layer, sims, streams)
	layer["trace.shared_hits"], layer["trace.shared_misses"] = hits, misses
	layer["trace.shared_hit_ratio"] = ratio(hits, misses)
	var buf strings.Builder
	if err := f.reg.WritePrometheus(&buf); err != nil {
		return 0, err
	}
	text := buf.String()
	n := float64(f.runs)
	layer["cluster.shards"] = promSum(text, "delta_cluster_shards_total", "") / n
	layer["cluster.retries"] = promSum(text, "delta_cluster_shard_retries_total", "") / n
	layer["cluster.hedged"] = promSum(text, "delta_cluster_hedged_shards_total", "") / n
	return bad, nil
}

// peakRSSMB is the median over measured sweeps of each sweep's peak RSS
// (see README.md for why not the peak of the whole run).
func (f *fleet) peakRSSMB() float64 { return median(f.rssMB) }

func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
	f.servers = nil
}

// joinPayloads concatenates a sweep's payloads, one a line.
func joinPayloads(ps []json.RawMessage) string {
	var b strings.Builder
	for _, p := range ps {
		b.Write(p)
		b.WriteByte('\n')
	}
	return b.String()
}

// promSum adds up every sample of a Prometheus text-format metric whose
// label set contains labels.
func promSum(text, name, labels string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		metric, lbls, _ := strings.Cut(series, "{")
		if metric != name || !strings.Contains(lbls, labels) {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(value, &v); err == nil {
			sum += v
		}
	}
	return sum
}
