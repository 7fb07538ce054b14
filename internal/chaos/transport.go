package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Transport wraps base (nil = http.DefaultTransport) so every request
// consults the injector's rules. Wrap an http.Client's Transport with it
// to inject faults from the client side — the in-process fleet tests wrap
// the coordinator's client.
func (inj *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{inj: inj, base: base}
}

type transport struct {
	inj  *Injector
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	faults := t.inj.plan(req.URL.Host, req.URL.Path, false)
	plan := splitFaults(faults)

	if plan.refuse {
		return nil, fmt.Errorf("chaos: connection refused (%s)", req.URL.Host)
	}
	// All client-side waits watch the request context: injected latency
	// delays a live request but fails a cancelled one immediately.
	sleep := func(d time.Duration) error {
		t.inj.pause(req.Context(), d)
		return req.Context().Err()
	}
	if plan.dial > 0 {
		if err := sleep(plan.dial); err != nil {
			return nil, err
		}
	}
	if plan.status != 0 {
		return &http.Response{
			Status:     fmt.Sprintf("%d chaos", plan.status),
			StatusCode: plan.status,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"text/plain"}},
			Body:       io.NopCloser(strings.NewReader("chaos injected\n")),
			Request:    req,
		}, nil
	}

	res, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if plan.firstByte > 0 {
		if err := sleep(plan.firstByte); err != nil {
			res.Body.Close()
			return nil, err
		}
	}
	if f := plan.filter(sleep); f != nil {
		res.Body = &filterReadCloser{src: res.Body, f: f}
	}
	return res, nil
}

// streamPlan is the per-request resolution of all fired faults into one
// action set, applied in precedence order: refuse > status > latency >
// stream surgery.
type streamPlan struct {
	refuse    bool
	status    int
	dial      time.Duration
	firstByte time.Duration
	frameLat  time.Duration
	cutAfter  int // complete frames delivered before the cut; -1 = off
	truncAt   int // frame index delivered torn; -1 = off
	corruptAt int // frame index with a flipped payload byte; -1 = off
}

func splitFaults(faults []fault) streamPlan {
	p := streamPlan{cutAfter: -1, truncAt: -1, corruptAt: -1}
	for _, f := range faults {
		switch f.Fault {
		case FaultRefuse:
			p.refuse = true
		case FaultStatus:
			p.status = statusOf(f.Rule)
		case FaultLatency:
			d := time.Duration(f.LatencyMS) * time.Millisecond
			switch f.Where {
			case "dial":
				p.dial += d
			case "frame":
				p.frameLat += d
			default: // "", "first_byte"
				p.firstByte += d
			}
		case FaultCut:
			p.cutAfter = f.AfterFrames
		case FaultTruncate:
			p.truncAt = f.AfterFrames
		case FaultCorrupt:
			p.corruptAt = f.AfterFrames
		}
	}
	return p
}

// filter builds the SSE-frame surgeon for this plan, or nil when the plan
// needs none.
func (p streamPlan) filter(sleep func(time.Duration) error) *frameFilter {
	if p.frameLat == 0 && p.cutAfter < 0 && p.truncAt < 0 && p.corruptAt < 0 {
		return nil
	}
	return &frameFilter{plan: p, sleep: sleep}
}

// Sentinel errors a frameFilter raises when it terminates a stream. The
// read side maps them onto connection-loss errors; the write side closes
// the connection.
var (
	errCut      = fmt.Errorf("chaos: stream cut")
	errTruncate = fmt.Errorf("chaos: stream truncated")
)

// frameFilter performs frame surgery on a byte stream carrying SSE
// frames. It buffers bytes until a frame terminator ("\n\n") completes a
// frame, then releases the frame — possibly delayed, corrupted, torn, or
// followed by a cut. HTTP response headers pass through untouched: their
// "\r\n\r\n" terminator contains no "\n\n", so the first detected frame
// boundary is the first SSE frame's.
type frameFilter struct {
	plan  streamPlan
	sleep func(time.Duration) error // non-nil error: the stream's caller is gone

	buf    []byte // bytes of the (incomplete) current frame
	frames int    // complete frames released so far
	err    error  // terminal condition already reached
}

// process pushes bytes through the filter and returns what may go out.
// After a terminating fault (cut/truncate), out holds the final bytes and
// err the sentinel; further calls return the same err.
func (ff *frameFilter) process(in []byte, eof bool) (out []byte, err error) {
	if ff.err != nil {
		return nil, ff.err
	}
	ff.buf = append(ff.buf, in...)
	for {
		i := indexFrameEnd(ff.buf)
		if i < 0 {
			break
		}
		frame := ff.buf[:i]
		ff.buf = ff.buf[i:]
		if ff.frames == ff.plan.cutAfter {
			ff.err = errCut
			return out, ff.err
		}
		if ff.plan.frameLat > 0 {
			if err := ff.sleep(ff.plan.frameLat); err != nil {
				// The request ended during the delay: like a slow link,
				// the delayed frame never reaches the caller.
				ff.err = err
				return out, ff.err
			}
		}
		if ff.frames == ff.plan.truncAt {
			ff.err = errTruncate
			return append(out, frame[:len(frame)/2]...), ff.err
		}
		if ff.frames == ff.plan.corruptAt && len(frame) >= 6 {
			// Flip a byte just inside the payload tail (before the
			// "\n\n" terminator), leaving the frame grammar intact but
			// the JSON inside it broken.
			frame = append([]byte(nil), frame...)
			frame[len(frame)-4] ^= 0x20
		}
		out = append(out, frame...)
		ff.frames++
	}
	if eof {
		out = append(out, ff.buf...)
		ff.buf = nil
	}
	return out, nil
}

// indexFrameEnd returns the index just past the first "\n\n" in b, or -1.
func indexFrameEnd(b []byte) int {
	for i := 0; i+1 < len(b); i++ {
		if b[i] == '\n' && b[i+1] == '\n' {
			return i + 2
		}
	}
	return -1
}

// filterReadCloser runs a response body through a frameFilter (client
// side). Filter-terminated streams surface io.ErrUnexpectedEOF (cut) or a
// bare EOF after a torn frame (truncate) — exactly what a dropped
// connection looks like to the SSE client.
type filterReadCloser struct {
	src     io.ReadCloser
	f       *frameFilter
	pending []byte
	err     error
}

func (rc *filterReadCloser) Read(p []byte) (int, error) {
	for len(rc.pending) == 0 && rc.err == nil {
		chunk := make([]byte, 4096)
		n, rerr := rc.src.Read(chunk)
		out, ferr := rc.f.process(chunk[:n], rerr != nil)
		rc.pending = append(rc.pending, out...)
		switch {
		case ferr == errCut:
			rc.err = io.ErrUnexpectedEOF
		case ferr == errTruncate:
			rc.err = io.EOF
		case ferr != nil:
			rc.err = ferr
		case rerr != nil:
			rc.err = rerr
		}
	}
	if len(rc.pending) == 0 {
		return 0, rc.err
	}
	n := copy(p, rc.pending)
	rc.pending = rc.pending[n:]
	return n, nil
}

func (rc *filterReadCloser) Close() error { return rc.src.Close() }
