package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"delta"
)

// encodeReference renders v the way writeJSON does, with encoding/json.
func encodeReference(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// resnet152Response is the /v1/network answer for ResNet-152 on a V100,
// evaluated through the same one-point scenario the handler builds.
func resnet152Response(tb testing.TB) estimateResponse {
	tb.Helper()
	net, err := delta.NetworkByName("resnet152", 0)
	if err != nil {
		tb.Fatal(err)
	}
	dev, err := delta.DeviceByName("V100")
	if err != nil {
		tb.Fatal(err)
	}
	upds, err := delta.NewPipeline().RunScenario(context.Background(), delta.Scenario{
		Name:      net.Name,
		Workloads: []delta.ScenarioWorkload{{Net: net}},
		Devices:   []delta.GPU{dev},
		Models:    []string{delta.ScenarioModelDelta},
		Passes:    []string{delta.ScenarioPassInference},
		Options:   []delta.TrafficOptions{{}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return renderNetwork(upds[0].Network, net.Counts)
}

// TestV1RenderAllocs pins the allocations of rendering the largest
// registered /v1/network body: the buffer, plus the sorted bottleneck keys.
func TestV1RenderAllocs(t *testing.T) {
	resp := resnet152Response(t)
	want, err := encodeReference(&resp)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	allocs := testing.AllocsPerRun(20, func() {
		got, err = resp.appendJSON(make([]byte, 0, resp.sizeHint()))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ResNet-152 body differs from encoding/json:\ngot:  %s\nwant: %s", got, want)
	}
	if allocs > 2 {
		t.Errorf("rendering ResNet-152 allocates %v times per body, want at most 2", allocs)
	}
}

// BenchmarkV1Render compares appendJSON with the encoding/json reference
// on the ResNet-152 /v1/network body.
func BenchmarkV1Render(b *testing.B) {
	resp := resnet152Response(b)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := resp.appendJSON(make([]byte, 0, resp.sizeHint())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encodeReference(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestV1NonFinitePrediction: a device spec that passes validation but
// drives a prediction to NaN or ±Inf answers 400 with a JSON error body on
// both /v1 routes, not 200 with an empty body.
func TestV1NonFinitePrediction(t *testing.T) {
	ts := testServer(t)
	specs := []string{
		`{"base": "V100", "clock_ghz": 1e-320}`,
		`{"base": "V100", "clock_ghz": 1e308}`,
		`{"base": "V100", "dram_bw_gbs": 1e-320}`,
	}
	routes := []struct{ path, workload string }{
		{"/v1/network", `"network": "alexnet"`},
		{"/v1/estimate", `"layers": [{"name": "c", "b": 32, "ci": 96, "hi": 27, "co": 256, "hf": 5, "stride": 1, "pad": 2}]`},
	}
	for _, rt := range routes {
		for _, dev := range specs {
			body := `{` + rt.workload + `, "device_spec": ` + dev + `}`
			resp, err := http.Post(ts.URL+rt.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status = %d, want 400 (body %q)", rt.path, dev, resp.StatusCode, raw)
				continue
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s %s: Content-Type = %q", rt.path, dev, ct)
			}
			var e errorResponse
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Errorf("%s %s: body %q is not a JSON error (%v)", rt.path, dev, raw, err)
			}
		}
	}
}

// FuzzV1Render asserts appendJSON writes exactly the bytes encoding/json
// writes for the same estimateResponse, and that both fail together on
// non-finite numbers. shape selects the response's structure: bits 0-1 the
// layer list (nil, empty, one row, three rows), bit 2 a bottleneck map,
// bit 3 all-zero omitempty fields, bits 4-5 training and roofline rows.
func FuzzV1Render(f *testing.F) {
	f.Fuzz(func(t *testing.T, network, name, bottleneck string, a, b, c float64, count int, shape uint8) {
		resp := estimateResponse{
			Network: network, Device: name, Model: bottleneck, Pass: network,
			TotalSeconds: c,
		}
		vals := [3]float64{a, b, c}
		switch shape & 3 {
		case 1:
			resp.Layers = []layerResponse{}
		case 2, 3:
			n := 1 + 2*int(shape&1)
			for i := range n {
				v := func(j int) float64 { return vals[(i+j)%3] }
				row := layerResponse{Name: name, Count: count + i, Seconds: v(0)}
				if shape&8 == 0 {
					row.Cycles, row.Bottleneck, row.Utilization = v(1), bottleneck, v(2)
					row.L1Bytes, row.L2Bytes, row.DRAMBytes = v(0), v(1), v(2)
					if shape&16 != 0 {
						row.FpropSeconds, row.DgradSeconds, row.WgradSeconds = v(1), v(2), v(0)
					}
					if shape&32 != 0 {
						row.Bound, row.Intensity = network, v(2)
					}
				}
				resp.Layers = append(resp.Layers, row)
			}
		}
		if shape&4 != 0 {
			resp.Bottlenecks = map[string]int{bottleneck: count, name: 1, "MAC_BW": -count}
		}

		want, wantErr := encodeReference(&resp)
		got, err := resp.appendJSON(nil)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendJSON error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("appendJSON diverged from encoding/json:\ngot:  %q\nwant: %q", got, want)
		}
	})
}
