// Reflection-free rendering of the /v1 estimate body. /v1/estimate and
// /v1/network answer mostly from the memo, so encoding dominates their
// handler time; appendJSON writes the same bytes json.Encoder with
// SetIndent("", "  ") writes, in one pass and without reflection.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// v1BytesPerLayer over-estimates one rendered layer row (about 330 bytes
// for a delta inference row), so a whole body fits its first buffer.
const v1BytesPerLayer = 384

// sizeHint is the buffer capacity appendJSON needs for r in one allocation.
func (r *estimateResponse) sizeHint() int {
	return 256 + v1BytesPerLayer*len(r.Layers)
}

// appendJSON appends r to b byte-for-byte as json.NewEncoder(w) with
// SetIndent("", "  ") writes it, trailing newline included: the same float
// formatting, omitempty fields, "layers": null for nil Layers, sorted map
// keys and HTML-safe string escaping. A NaN or ±Inf field is an error, as
// it is for encoding/json.
func (r *estimateResponse) appendJSON(b []byte) ([]byte, error) {
	e := v1Encoder{b: append(b, '{')}
	e.key(1, "network", true)
	e.quote(r.Network)
	e.key(1, "device", false)
	e.quote(r.Device)
	e.key(1, "model", false)
	e.quote(r.Model)
	e.key(1, "pass", false)
	e.quote(r.Pass)
	e.key(1, "layers", false)
	switch {
	case r.Layers == nil:
		e.b = append(e.b, "null"...)
	case len(r.Layers) == 0:
		e.b = append(e.b, "[]"...)
	default:
		e.b = append(e.b, '[')
		for i := range r.Layers {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.newline(2)
			e.layer(&r.Layers[i])
		}
		e.newline(1)
		e.b = append(e.b, ']')
	}
	e.key(1, "total_seconds", false)
	e.float("total_seconds", r.TotalSeconds)
	if len(r.Bottlenecks) > 0 {
		e.key(1, "bottlenecks", false)
		e.counts(r.Bottlenecks)
	}
	e.newline(0)
	e.b = append(e.b, "}\n"...)
	return e.b, e.err
}

// v1Encoder appends indented JSON, keeping the first error it meets.
type v1Encoder struct {
	b   []byte
	err error
}

func (e *v1Encoder) newline(depth int) {
	e.b = append(e.b, '\n')
	for range depth {
		e.b = append(e.b, "  "...)
	}
}

// key opens an object member named by a plain-ASCII literal; every member
// but an object's first is preceded by a comma.
func (e *v1Encoder) key(depth int, name string, first bool) {
	if !first {
		e.b = append(e.b, ',')
	}
	e.newline(depth)
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, `": `...)
}

func (e *v1Encoder) layer(l *layerResponse) {
	e.b = append(e.b, '{')
	e.key(3, "name", true)
	e.quote(l.Name)
	e.key(3, "count", false)
	e.b = strconv.AppendInt(e.b, int64(l.Count), 10)
	e.key(3, "seconds", false)
	e.float("seconds", l.Seconds)
	e.optFloat("cycles", l.Cycles)
	e.optString("bottleneck", l.Bottleneck)
	e.optFloat("utilization", l.Utilization)
	e.optFloat("l1_bytes", l.L1Bytes)
	e.optFloat("l2_bytes", l.L2Bytes)
	e.optFloat("dram_bytes", l.DRAMBytes)
	e.optFloat("fprop_seconds", l.FpropSeconds)
	e.optFloat("dgrad_seconds", l.DgradSeconds)
	e.optFloat("wgrad_seconds", l.WgradSeconds)
	e.optString("bound", l.Bound)
	e.optFloat("intensity", l.Intensity)
	e.newline(2)
	e.b = append(e.b, '}')
}

// optFloat and optString write an omitempty layer member.
func (e *v1Encoder) optFloat(name string, f float64) {
	if f != 0 {
		e.key(3, name, false)
		e.float(name, f)
	}
}

func (e *v1Encoder) optString(name, s string) {
	if s != "" {
		e.key(3, name, false)
		e.quote(s)
	}
}

// counts writes a non-empty string→int map with its keys sorted.
func (e *v1Encoder) counts(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.b = append(e.b, '{')
	for i, k := range keys {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.newline(2)
		e.quote(k)
		e.b = append(e.b, ": "...)
		e.b = strconv.AppendInt(e.b, int64(m[k]), 10)
	}
	e.newline(1)
	e.b = append(e.b, '}')
}

// float formats f as encoding/json does (ES6 number-to-string): 'f' style,
// 'e' below 1e-6 or from 1e21 on, with exponents not padded to two digits.
func (e *v1Encoder) float(name string, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("encoding response: unsupported value %s in %q",
				strconv.FormatFloat(f, 'g', -1, 64), name)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// quote writes s as a JSON string. Plain printable ASCII without characters
// JSON or HTML escaping touches is copied; anything else goes through
// json.Marshal, whose escaping the encoder shares.
func (e *v1Encoder) quote(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}
