package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"delta/internal/stats"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (checked by TestBenchmarkJSONMatches).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. What an "operation" and a unit of "work" are depends on the
// workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"work_per_s", "1/s"},
}

// perLayer are the metrics of a traced run. Every workload reports all of
// them; a module the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"spec.decode_ms", "ms"},
	{"scenario.expand_ms", "ms"},
	{"scenario.expand_alloc_mb", "MB"},
	{"scenario.points", "count"},
	{"pipeline.stream_ms", "ms"},
	{"pipeline.point_gap_us_p50", "us"},
	{"pipeline.point_gap_us_p99", "us"},
	{"pipeline.alloc_mb", "MB"},
	{"pipeline.memo_hits", "count"},
	{"pipeline.memo_misses", "count"},
	{"pipeline.memo_hit_ratio", "ratio"},
	{"pipeline.overhead_share", "ratio"},
	{"traffic.model_ms", "ms"},
	{"perf.model_ms", "ms"},
	{"prior.model_ms", "ms"},
	{"roofline.model_ms", "ms"},
	{"backprop.step_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"engine.ns_per_l1_sector", "ns"},
	{"engine.alloc_mb", "MB"},
	{"engine.l1_requests", "count"},
	{"engine.l1_sectors", "count"},
	{"engine.l2_sectors", "count"},
	{"engine.dram_sectors", "count"},
	{"engine.dram_write_sectors", "count"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.l2_hit_ratio", "ratio"},
	{"trace.shared_hits", "count"},
	{"trace.shared_misses", "count"},
	{"trace.shared_hit_ratio", "ratio"},
	{"model_gmae_l1_pct", "%"},
	{"model_gmae_l2_pct", "%"},
	{"model_gmae_dram_pct", "%"},
	{"cluster.run_ms", "ms"},
	{"cluster.peer_busy_ms_max", "ms"},
	{"cluster.peer_busy_ms_min", "ms"},
	{"cluster.peer_imbalance", "ratio"},
	{"cluster.overhead_ms", "ms"},
	{"cluster.first_point_ms", "ms"},
	{"cluster.wire_bytes_per_point", "B"},
	{"cluster.shards", "count"},
	{"cluster.retries", "count"},
	{"cluster.hedged", "count"},
	{"delta-server.v1_handler_ms", "ms"},
	{"delta-server.v1_wire_ms", "ms"},
	{"delta-server.v2_submit_ms", "ms"},
	{"delta-server.v2_first_frame_ms", "ms"},
	{"delta-server.memo_hit_ratio", "ratio"},
	{"delta-server.shed", "count"},
	{"serve.v1_p99_ms", "ms"},
	{"serve.v1_p99_ms_at_800", "ms"},
	{"serve.v1_p99_ms_at_1600", "ms"},
	{"serve.v1_p99_ms_at_3200", "ms"},
	{"serve.v1_goodput_rps", "1/s"},
	{"serve.job_p50_ms", "ms"},
	{"serve.job_p90_ms", "ms"},
	{"durable.wal_records_per_job", "count"},
	{"durable.outbox_flushed", "count"},
	{"durable.outbox_retries", "count"},
	{"durable.dead_letters", "count"},
	{"bench.gen_lag_ms_p99", "ms"},
	{"bench.tracing_overhead_pct", "%"},
	{"bench.host_probe_ms", "ms"},
	{"bench.error_ratio", "ratio"},
	{"bench.ops", "count"},
	{"bench.op_p90_ms", "ms"},
}

// quantile is the q-quantile of xs with linear interpolation, or 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/(a+b), or 0 when both are zero.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid string) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%s/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS resets this process's VmHWM to its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuSeconds reads the user plus system CPU time a process has used, from
// /proc/<pid>/stat (in USER_HZ ticks, 100 per second on Linux).
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return (utime + stime) / 100, nil
}

// allocMB returns the bytes allocated so far by this process, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// hostProbeMs times a fixed computation that uses no repository code: a
// dependent pseudo-random walk over 32 MB, which costs both arithmetic and
// memory latency. Its value moves only with the host, so comparing it
// across runs tells a slower host from a slower program.
func hostProbeMs() float64 {
	const n = 8 << 20 // 32 MB of uint32, a power of two
	buf := make([]uint32, n)
	for i := range buf {
		buf[i] = uint32(i) * 2654435761
	}
	start := time.Now()
	var x uint32
	for i := uint32(0); i < 1<<19; i++ {
		x = buf[(x^i)&(n-1)] + i
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if x == 1 { // keeps the walk from being optimised away
		ms += 1e-9
	}
	return ms
}
