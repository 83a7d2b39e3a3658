package apps

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/model"
)

// submitOne runs one decoded input through a fresh plane over the
// pipeline and returns the encoded result.
func submitOne(t *testing.T, codec ingest.Codec, pl *fxrt.Pipeline, opts fxrt.StreamOptions, input string) map[string]any {
	t.Helper()
	p, err := ingest.New(ingest.Config{DefaultBudget: time.Minute}, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()
	ds, err := codec.Decode(json.RawMessage(input))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	out, err := p.Submit(context.Background(), "", ds, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if out.Err != nil {
		t.Fatalf("outcome: %v", out.Err)
	}
	enc, err := codec.Encode(out.Output)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Round-trip through JSON exactly as the HTTP handler would.
	raw, err := json.Marshal(enc)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFFTHistCodecEndToEnd(t *testing.T) {
	r := FFTHistRunner{N: 64}
	c := FFTHistStructure(r.N)
	m := model.Mapping{Chain: c, Modules: []model.Module{
		{Lo: 0, Hi: 2, Procs: 2, Replicas: 1},
		{Lo: 2, Hi: 3, Procs: 1, Replicas: 1},
	}}
	pl, edges, err := r.Pipeline(m)
	if err != nil {
		t.Fatal(err)
	}
	res := submitOne(t, FFTHistCodec{Runner: r}, pl, fxrt.StreamOptions{Edges: edges}, `{"seed": 3}`)
	if res["count"].(float64) != float64(r.N*r.N) {
		t.Fatalf("histogram count = %v, want %d", res["count"], r.N*r.N)
	}
}

func TestFFTHistCodecRejectsBadData(t *testing.T) {
	c := FFTHistCodec{Runner: FFTHistRunner{N: 8}}
	if _, err := c.Decode(json.RawMessage(`{"data": [1, 2, 3]}`)); err == nil {
		t.Fatal("short data accepted")
	}
	if _, err := c.Decode(json.RawMessage(`not json`)); err == nil {
		t.Fatal("malformed input accepted")
	}
	if _, err := c.Decode(nil); err != nil {
		t.Fatalf("empty input rejected: %v", err)
	}
}

func TestRadarCodecEndToEnd(t *testing.T) {
	r := RadarRunner{Pulses: 8, Gates: 64}
	pl, _, err := r.Pipeline(radarMapping(RadarStructure()))
	if err != nil {
		t.Fatal(err)
	}
	res := submitOne(t, RadarCodec{Runner: r}, pl, fxrt.StreamOptions{},
		`{"target_gate": 20, "target_doppler": 3}`)
	if res["detections"].(float64) <= 0 {
		t.Fatalf("no detections for an injected target: %v", res)
	}
	top := res["top"].([]any)
	if len(top) == 0 {
		t.Fatal("no top detections reported")
	}
	best := top[0].(map[string]any)
	if int(best["range"].(float64)) != 20 {
		t.Fatalf("strongest detection at range %v, want the injected gate 20", best["range"])
	}
}

func TestRadarCodecValidatesTarget(t *testing.T) {
	c := RadarCodec{Runner: RadarRunner{Pulses: 8, Gates: 64}}
	if _, err := c.Decode(json.RawMessage(`{"target_gate": 1000}`)); err == nil {
		t.Fatal("out-of-range target gate accepted")
	}
}

// TestRadarCodecExplicitZeroTarget checks that a target field present in
// the input is honoured even when it is 0, and that an absent one takes
// the runner's default.
func TestRadarCodecExplicitZeroTarget(t *testing.T) {
	c := RadarCodec{}
	for _, tc := range []struct {
		input  string
		tg, td int
	}{
		{`{"seed":3,"target_gate":0,"target_doppler":0}`, 0, 0},
		{`{"seed":3,"target_gate":0}`, 0, 3},
		{`{"seed":3,"target_doppler":0}`, 64, 0},
		{`{"seed":3}`, 64, 3},
	} {
		ds, err := c.Decode(json.RawMessage(tc.input))
		if err != nil {
			t.Fatalf("%s: %v", tc.input, err)
		}
		got, want := ds.(*RadarData).Cube, c.Runner.inputAt(3, tc.tg, tc.td).Cube
		if !reflect.DeepEqual(got.Data, want.Data) {
			t.Errorf("%s: decoded cube differs from the cube with the echo at gate %d, Doppler bin %d",
				tc.input, tc.tg, tc.td)
		}
	}
}

func TestStereoCodecEndToEnd(t *testing.T) {
	r := StereoRunner{W: 64, H: 32}
	c := StereoStructure()
	m := model.Mapping{Chain: c, Modules: []model.Module{
		{Lo: 0, Hi: 2, Procs: 2, Replicas: 1},
		{Lo: 2, Hi: 4, Procs: 2, Replicas: 1},
	}}
	pl, err := r.Pipeline(m)
	if err != nil {
		t.Fatal(err)
	}
	res := submitOne(t, StereoCodec{Runner: r}, pl, fxrt.StreamOptions{}, "")
	if acc := res["accuracy"].(float64); acc < 0.8 {
		t.Fatalf("depth accuracy %v, want >= 0.8 on the synthetic scene", acc)
	}
}
