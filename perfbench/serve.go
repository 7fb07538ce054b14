package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"delta/internal/cnn"
	"delta/internal/gpu"
	"delta/internal/pipeline"
	"delta/internal/spec"
)

// The serve-mixed load: /v1 reads first run closed loop for satShare of
// the phase, then arrive as a seeded Poisson process whose rate steps
// through readLadder (multiples of readRate, equal time on each rung);
// /v2 jobs arrive as a Poisson process at jobRate throughout. Reads use one connection and
// jobs another, so load comes from two client goroutines. README.md gives
// the measurements these numbers come from.
const (
	readRate       = 100.0 // requests/s on the base rung
	jobRate        = 10.0  // jobs/s
	latencyLimitMs = 50.0  // p99 limit a rung must meet to count toward goodput
	satShare       = 0.5   // share of the phase spent in the closed-loop step
	catalogueSize  = 48    // distinct /v1 requests, drawn with Zipf popularity
	zipfS          = 1.2
)

var readLadder = []float64{1, 8, 16, 32}

// serve is the serve-mixed workload: a delta-server subprocess with a
// durable data directory, driven open loop. An operation is one /v1 read
// on the base rung, timed from when it was due; work is /v1 reads answered
// correctly per second in the closed-loop step.
type serve struct {
	o       options
	dataDir string
	cmd     *exec.Cmd
	exited  chan struct{}
	base    string

	reads   []*readReq
	jobDocs []json.RawMessage
	rng     *rand.Rand
	zipf    *rand.Zipf
	satZipf [2]*rand.Zipf // one per connection in the closed-loop step

	readClient, jobClient *http.Client
	nextID                int
}

// readReq is one distinct /v1 request and its in-process answer.
type readReq struct {
	path string
	body []byte
	want pipeline.NetworkResult

	// verified is the first response body, checked number by number
	// against want; later responses must repeat it byte for byte.
	verified []byte
}

func newServe(o options) (*serve, error) {
	if o.serverBin == "" {
		return nil, errors.New("serve-mixed needs -server-bin")
	}
	return &serve{o: o}, nil
}

// serveInputs builds the seeded /v1 request catalogue, each answer
// computed by an in-process evaluator, and the small job sweeps. The
// request kind and network are fixed by popularity rank (every fourth
// rank an explicit one-layer /v1/estimate, the others cycling through the
// networks), and the seed picks the rest, so the mix of response sizes,
// and with it the latency, does not depend on the seed.
func serveInputs(ctx context.Context, seed int64, short bool) ([]*readReq, []json.RawMessage, error) {
	r := rand.New(rand.NewSource(seed))
	nets := []string{"alexnet", "vgg16", "googlenet", "resnet50", "resnet152"}
	devs := []string{"TITAN Xp", "P100", "V100"}
	models := []string{"delta", "prior", "roofline"}
	batches := []int{16, 32, 64, 128}
	n := catalogueSize
	if short {
		n = 6
	}
	ev := pipeline.New()
	seen := map[string]bool{}
	var reads []*readReq
	for len(reads) < n {
		rank := len(reads)
		devName, model, b := devs[r.Intn(len(devs))], models[r.Intn(len(models))], batches[r.Intn(len(batches))]
		req := map[string]any{"device": devName, "model": model}
		path := "/v1/network"
		var net cnn.Network
		if rank%4 == 3 {
			all := cnn.AllUniqueLayers(b)
			i := r.Intn(len(all))
			net = cnn.Network{Name: "request", Layers: all[i : i+1], Counts: []int{1}}
			var buf bytes.Buffer
			if err := spec.WriteNetwork(&buf, net); err != nil {
				return nil, nil, err
			}
			req["layers"] = json.RawMessage(buf.Bytes())
			path = "/v1/estimate"
		} else {
			name := nets[(rank-rank/4)%len(nets)]
			var err error
			if net, err = cnn.ByName(name, b); err != nil {
				return nil, nil, err
			}
			req["network"], req["batch"] = name, b
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		dev, err := gpu.ByName(devName)
		if err != nil {
			return nil, nil, err
		}
		want, err := ev.Network(ctx, pipeline.NetworkRequest{Net: net, Device: dev, Model: pipeline.Model(model)})
		if err != nil {
			return nil, nil, err
		}
		reads = append(reads, &readReq{path: path, body: body, want: want})
	}
	var jobs []json.RawMessage
	for i := 0; i < 3*len(nets); i++ {
		doc, err := json.Marshal(map[string]any{"scenario": map[string]any{
			"name":      fmt.Sprintf("job-%d", i),
			"workloads": []map[string]string{{"network": nets[i%len(nets)]}},
			"devices":   []map[string]string{{"name": devs[r.Intn(len(devs))]}, {"name": devs[r.Intn(len(devs))]}},
			"batches":   []int{batches[r.Intn(len(batches))]},
			"models":    []string{"delta", "prior"},
		}})
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, doc)
	}
	return reads, jobs, nil
}

func (s *serve) setup(ctx context.Context) error {
	s.close()
	var err error
	if s.reads, s.jobDocs, err = serveInputs(ctx, s.o.seed, s.o.short); err != nil {
		return err
	}
	s.rng = rand.New(rand.NewSource(s.o.seed))
	s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(s.reads)-1))
	// The closed-loop step draws from streams of its own, so how many
	// reads it completes does not shift the next phase's schedule.
	for i := range s.satZipf {
		s.satZipf[i] = rand.NewZipf(rand.New(rand.NewSource(s.o.seed+1+int64(i))), zipfS, 1, uint64(len(s.reads)-1))
	}
	s.readClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	s.jobClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	if err := s.start(ctx); err != nil {
		return err
	}
	// Warm-up: every distinct read once (checked against the in-process
	// answer, and leaving the server's memo warm) and one job.
	for _, rq := range s.reads {
		if _, ok, err := s.read(ctx, s.readClient, rq); err != nil || !ok {
			return fmt.Errorf("warm-up read %s %s: ok=%v err=%v", rq.path, rq.body, ok, err)
		}
	}
	_, err = s.job(ctx, nil, "warmup", s.jobDocs[0])
	return err
}

// start launches the server on a free loopback port with a fresh data
// directory and waits until it reports healthy.
func (s *serve) start(ctx context.Context) error {
	s.dataDir = filepath.Join(s.o.outDir, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.RemoveAll(s.dataDir); err != nil {
		return err
	}
	if err := os.MkdirAll(s.dataDir, 0o755); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(s.dataDir, "server.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.Command(s.o.serverBin, "-addr", addr, "-data-dir", filepath.Join(s.dataDir, "data"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without running close, the kernel stops
	// the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	s.cmd, s.exited, s.base = cmd, make(chan struct{}), "http://"+addr
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: close stops it on purpose
		close(s.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("delta-server exited during start-up (see %s)", logf.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		resp, err := s.readClient.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
	}
	return errors.New("delta-server did not become healthy")
}

// read sends one /v1 request over c and checks the answer: the first
// response of each distinct request against the in-process result, later
// ones against that verified body. Set-up verifies every request, so
// concurrent reads in a phase only compare.
func (s *serve) read(ctx context.Context, c *http.Client, rq *readReq) (time.Duration, bool, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return 0, false, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		return took, false, nil
	}
	if rq.verified != nil {
		return took, bytes.Equal(body, rq.verified), nil
	}
	if !checkV1(body, rq.want) {
		return took, false, nil
	}
	rq.verified = body
	return took, true, nil
}

// v1Body is the part of a /v1 response the check compares.
type v1Body struct {
	TotalSeconds float64 `json:"total_seconds"`
	Layers       []struct {
		Seconds   float64 `json:"seconds"`
		L1Bytes   float64 `json:"l1_bytes"`
		L2Bytes   float64 `json:"l2_bytes"`
		DRAMBytes float64 `json:"dram_bytes"`
	} `json:"layers"`
}

// checkV1 reports whether a /v1 body carries exactly the in-process
// result: the total and every layer's seconds and traffic, bit for bit.
func checkV1(body []byte, want pipeline.NetworkResult) bool {
	var got v1Body
	if err := json.Unmarshal(body, &got); err != nil {
		return false
	}
	if got.TotalSeconds != want.Seconds || len(got.Layers) != len(want.Results) {
		return false
	}
	for i, l := range got.Layers {
		w := want.Results[i]
		if l.Seconds != w.Seconds || l.L1Bytes != w.Traffic.L1Bytes ||
			l.L2Bytes != w.Traffic.L2Bytes || l.DRAMBytes != w.Traffic.DRAMBytes {
			return false
		}
	}
	return true
}

// jobTiming is what one /v2 job observed.
type jobTiming struct {
	submit, firstFrame time.Duration
}

// job submits one sweep and follows its events to the done frame, then
// checks the frames.
func (s *serve) job(ctx context.Context, tr *tracer, id string, doc json.RawMessage) (jobTiming, error) {
	var jt jobTiming
	root := tr.start("client.job", id, nil)
	defer root.end()
	sp := tr.start("delta-server.v2_submit", id, root)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v2/jobs", bytes.NewReader(doc))
	if err != nil {
		return jt, err
	}
	resp, err := s.jobClient.Do(req)
	if err != nil {
		return jt, err
	}
	var sum struct {
		EventsURL string `json:"events_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sum)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	jt.submit = time.Since(start)
	sp.end()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return jt, fmt.Errorf("submit: status %d, %v", resp.StatusCode, err)
	}
	sp = tr.start("delta-server.v2_events", id, root)
	defer sp.end()
	evStart := time.Now()
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.base+sum.EventsURL, nil)
	if err != nil {
		return jt, err
	}
	if resp, err = s.jobClient.Do(req); err != nil {
		return jt, err
	}
	defer resp.Body.Close()
	frames, first, err := readSSE(resp.Body, evStart)
	jt.firstFrame = first
	if err != nil {
		return jt, err
	}
	return jt, checkSSE(frames)
}

// sseFrame is one parsed Server-Sent-Events frame.
type sseFrame struct {
	id    int
	event string
	data  string
}

// readSSE parses an event stream to its end, returning the frames and the
// time from start to the first frame.
func readSSE(r io.Reader, start time.Time) ([]sseFrame, time.Duration, error) {
	var (
		frames []sseFrame
		cur    sseFrame
		first  time.Duration
		open   bool
	)
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && open:
			if len(frames) == 0 {
				first = time.Since(start)
			}
			frames = append(frames, cur)
			cur, open = sseFrame{}, false
		case strings.HasPrefix(line, "id: "):
			n, aerr := strconv.Atoi(line[4:])
			if aerr != nil {
				return frames, first, fmt.Errorf("bad frame id %q", line)
			}
			cur.id, open = n, true
		case strings.HasPrefix(line, "event: "):
			cur.event, open = line[7:], true
		case strings.HasPrefix(line, "data: "):
			cur.data, open = line[6:], true
		}
		if err == io.EOF {
			return frames, first, nil
		}
		if err != nil {
			return frames, first, err
		}
	}
}

// checkSSE checks a finished job's frames: result ids run 1, 2, ... with
// no gap, and the stream ends with one done frame whose status is done and
// whose done count equals both its total and the results delivered.
func checkSSE(frames []sseFrame) error {
	if len(frames) == 0 {
		return errors.New("no frames")
	}
	for i, f := range frames[:len(frames)-1] {
		if f.event != "result" || f.id != i+1 {
			return fmt.Errorf("frame %d: event %q id %d", i, f.event, f.id)
		}
	}
	last := frames[len(frames)-1]
	var done struct {
		Status string `json:"status"`
		Done   int    `json:"done"`
		Total  int    `json:"total"`
	}
	if last.event != "done" {
		return fmt.Errorf("last frame is %q, not done", last.event)
	}
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		return err
	}
	n := len(frames) - 1
	if done.Status != "done" || done.Done != n || done.Total != n || last.id != n {
		return fmt.Errorf("done frame %+v (id %d) after %d results", done, last.id, n)
	}
	return nil
}

// arrivals returns seeded Poisson arrival offsets at rate per second over
// [from, to).
func arrivals(r *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	var out []time.Duration
	t := from
	for {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t >= to {
			return out
		}
		out = append(out, t)
	}
}

// readSample is one /v1 read of a phase.
type readSample struct {
	rung              int
	latMs, svcMs, lag float64
	ok                bool
}

func (s *serve) phase(ctx context.Context, d time.Duration, tr *tracer) (*phaseResult, error) {
	before, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}
	// The schedule: the closed-loop step takes the first satShare of d,
	// then the rungs share the rest equally, with jobs beside them.
	type due struct {
		at   time.Duration
		rung int
		rq   *readReq
	}
	var reads []due
	satD := time.Duration(satShare * float64(d))
	step := (d - satD) / time.Duration(len(readLadder))
	for i, m := range readLadder {
		from := satD + time.Duration(i)*step
		for _, at := range arrivals(s.rng, readRate*m, from, from+step) {
			reads = append(reads, due{at, i, s.reads[s.zipf.Uint64()]})
		}
	}
	jobDue := arrivals(s.rng, jobRate, satD, d)
	if len(jobDue) == 0 {
		jobDue = []time.Duration{d / 2}
	}
	jobDocs := make([]json.RawMessage, len(jobDue))
	for i := range jobDocs {
		jobDocs[i] = s.jobDocs[s.rng.Intn(len(s.jobDocs))]
	}

	t0 := time.Now()
	var (
		wg        sync.WaitGroup
		jobLat    []float64
		jobTimes  []jobTiming
		jobFailed int
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, at := range jobDue {
			if !sleepUntil(ctx, t0.Add(at)) {
				return
			}
			s.nextID++
			jt, err := s.job(ctx, tr, fmt.Sprintf("job-%d", s.nextID), jobDocs[i])
			if err != nil {
				jobFailed++
				continue
			}
			jobLat = append(jobLat, float64(time.Since(t0.Add(at)).Nanoseconds())/1e6)
			jobTimes = append(jobTimes, jt)
		}
	}()
	// The closed-loop step: one reader on each connection sends reads
	// back to back, so the server alone sets how many complete. Jobs
	// start after it, which keeps the load at two connections. Its first
	// second (a third, in short steps) lets the freshly started server
	// warm up; after that, work is the reads completed per CPU-second the
	// server used, which other tenants of a shared host disturb less than
	// the wall clock (README.md gives the measurements).
	var (
		svc   [2][]float64 // every read's client-side time, per connection
		nRead int
	)
	closedLoop := func(until time.Duration) (reads, ok int) {
		var (
			wg  sync.WaitGroup
			cnt [2][2]int // per connection: reads, correct reads
		)
		for i, c := range []*http.Client{s.readClient, s.jobClient} {
			wg.Add(1)
			go func(i int, c *http.Client) {
				defer wg.Done()
				for ctx.Err() == nil && time.Since(t0) < until {
					sp := tr.start("client.v1", fmt.Sprintf("closed-%d-%d", i, len(svc[i])), nil)
					took, ok, err := s.read(ctx, c, s.reads[s.satZipf[i].Uint64()])
					sp.end()
					svc[i] = append(svc[i], float64(took.Nanoseconds())/1e6)
					cnt[i][0]++
					if ok && err == nil {
						cnt[i][1]++
					}
				}
			}(i, c)
		}
		wg.Wait()
		return cnt[0][0] + cnt[1][0], cnt[0][1] + cnt[1][1]
	}
	warmReads, warmOK := closedLoop(min(satD/3, time.Second))
	cpu0, err := cpuSeconds(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	satReads, satOK := closedLoop(satD)
	cpu1, err := cpuSeconds(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	samples := make([]readSample, 0, len(reads))
	for _, rd := range reads {
		dueAt := t0.Add(rd.at)
		if !sleepUntil(ctx, dueAt) {
			break
		}
		lag := time.Since(dueAt)
		nRead++
		sp := tr.start("client.v1", fmt.Sprintf("read-%d", nRead), nil)
		took, ok, err := s.read(ctx, s.readClient, rd.rq)
		sp.end()
		if err != nil && ctx.Err() != nil {
			break
		}
		samples = append(samples, readSample{
			rung: rd.rung, latMs: float64(time.Since(dueAt).Nanoseconds()) / 1e6,
			svcMs: float64(took.Nanoseconds()) / 1e6, lag: float64(lag.Nanoseconds()) / 1e6, ok: ok && err == nil,
		})
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// At least one tick, so a very short step cannot divide by zero.
	pr := &phaseResult{layer: map[string]float64{}, work: float64(satOK), seconds: max(cpu1-cpu0, 0.01)}
	pr.attempted = len(samples) + warmReads + satReads + len(jobDue)
	pr.failed = jobFailed + warmReads - warmOK + satReads - satOK
	var lags []float64
	rungLat := make([][]float64, len(readLadder))
	rungLateEnd := make([]float64, len(readLadder))
	for _, sm := range samples {
		if !sm.ok {
			pr.failed++
		}
		if sm.rung == 0 {
			pr.latMs = append(pr.latMs, sm.latMs)
		}
		rungLat[sm.rung] = append(rungLat[sm.rung], sm.latMs)
		rungLateEnd[sm.rung] = sm.lag // the last request's lag shows a backlog
		lags = append(lags, sm.lag)
		svc[0] = append(svc[0], sm.svcMs)
	}
	if tr == nil {
		return pr, nil
	}
	after, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}
	l := pr.layer
	l["serve.v1_p99_ms"] = quantile(rungLat[0], 0.99)
	// Goodput is the highest rate up to which every rung met the limit.
	passing := true
	for i, m := range readLadder {
		p99 := quantile(rungLat[i], 0.99)
		if i > 0 {
			l[fmt.Sprintf("serve.v1_p99_ms_at_%.0f", readRate*m)] = p99
		}
		passing = passing && p99 <= latencyLimitMs && rungLateEnd[i] <= latencyLimitMs
		if passing {
			l["serve.v1_goodput_rps"] = readRate * m
		}
	}
	l["serve.job_p50_ms"] = quantile(jobLat, 0.5)
	l["serve.job_p90_ms"] = quantile(jobLat, 0.9)
	l["bench.gen_lag_ms_p99"] = quantile(lags, 0.99)
	delta := func(name, labels string) float64 { return promSum(after, name, labels) - promSum(before, name, labels) }
	if v1Count := delta("delta_http_request_duration_seconds_count", `route="/v1/`); v1Count > 0 {
		handlerMs := 1e3 * delta("delta_http_request_duration_seconds_sum", `route="/v1/`) / v1Count
		l["delta-server.v1_handler_ms"] = handlerMs
		l["delta-server.v1_wire_ms"] = mean(append(svc[0], svc[1]...)) - handlerMs
	}
	var submit, first []float64
	for _, jt := range jobTimes {
		submit = append(submit, float64(jt.submit.Nanoseconds())/1e6)
		first = append(first, float64(jt.firstFrame.Nanoseconds())/1e6)
	}
	l["delta-server.v2_submit_ms"] = median(submit)
	l["delta-server.v2_first_frame_ms"] = median(first)
	hits, misses := delta("delta_pipeline_cache_hits_total", ""), delta("delta_pipeline_cache_misses_total", "")
	l["delta-server.memo_hit_ratio"] = ratio(hits, misses)
	l["pipeline.memo_hits"], l["pipeline.memo_misses"] = hits, misses
	l["pipeline.memo_hit_ratio"] = ratio(hits, misses)
	l["delta-server.shed"] = delta("delta_http_shed_total", "")
	l["durable.wal_records_per_job"] = delta("delta_wal_records_total", "") / float64(max(1, len(jobTimes)))
	l["durable.outbox_flushed"] = delta("delta_outbox_flushed_total", "")
	l["durable.outbox_retries"] = delta("delta_outbox_retries_total", "")
	l["durable.dead_letters"] = delta("delta_outbox_dead_letters_total", "")
	return pr, nil
}

// scrape returns the server's /metrics text.
func (s *serve) scrape(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := s.readClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// sleepUntil waits for t; false means ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// finish has nothing left to check: reads and jobs are checked as they
// complete.
func (s *serve) finish(context.Context, *tracer, map[string]float64) (int, error) { return 0, nil }

func (s *serve) peakRSSMB() float64 {
	if s.cmd == nil {
		return 0
	}
	return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

// close stops the server (SIGTERM, then SIGKILL after 10s), waits for it
// to exit and removes its data directory.
func (s *serve) close() {
	if s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.cmd = nil
	for _, c := range []*http.Client{s.readClient, s.jobClient} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	os.RemoveAll(s.dataDir)
}
