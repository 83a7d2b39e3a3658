package apps

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/kernels"
)

// This file adapts the real applications to the ingestion data plane:
// each codec decodes a submit request's input into the pipeline's source
// data set and encodes the sink's output as a JSON-friendly result.

// finite replaces NaN and infinities with 0 so results always marshal.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// FFTHistCodec adapts FFT-Hist submissions: the input selects a synthetic
// seed or supplies a full real-valued matrix; the result summarizes the
// magnitude histogram.
type FFTHistCodec struct {
	Runner FFTHistRunner
}

var _ ingest.Codec = FFTHistCodec{}

// App implements ingest.Codec.
func (c FFTHistCodec) App() string { return "ffthist" }

// Decode implements ingest.Codec. An empty input synthesizes the seed-0
// data set; {"seed": k} varies it; {"data": [...]} supplies the N*N real
// values row-major. The data set keeps them in that order and reads it
// column-major, so it holds the transpose of the submitted matrix, whose
// spectrum has the same magnitudes, transposed: the histogram is the
// submitted matrix's.
func (c FFTHistCodec) Decode(input json.RawMessage) (fxrt.DataSet, error) {
	var req struct {
		Seed int       `json:"seed"`
		Data []float64 `json:"data"`
	}
	if len(input) > 0 {
		if err := json.Unmarshal(input, &req); err != nil {
			return nil, fmt.Errorf("ffthist input: %w", err)
		}
	}
	n := c.Runner.N
	if req.Data != nil {
		if len(req.Data) != n*n {
			return nil, fmt.Errorf("ffthist input: data length %d, want %d (N=%d)", len(req.Data), n*n, n)
		}
		mat := getMatrix(n, n)
		for i, v := range req.Data {
			mat.Data[i] = complex(v, 0)
		}
		return mat, nil
	}
	return c.Runner.Input(req.Seed), nil
}

// Encode implements ingest.Codec: the final histogram's summary moments.
func (c FFTHistCodec) Encode(out fxrt.DataSet) (any, error) {
	h, ok := out.(*kernels.Histogram)
	if !ok {
		return nil, fmt.Errorf("ffthist output: got %T, want *kernels.Histogram", out)
	}
	return map[string]any{
		"count":    h.Count,
		"bins":     len(h.Bins),
		"mean":     finite(h.Mean()),
		"variance": finite(h.Variance()),
		"min":      finite(h.Min),
		"max":      finite(h.Max),
	}, nil
}

// RadarCodec adapts radar submissions: the input places the synthetic
// target; the result reports the CFAR detections.
type RadarCodec struct {
	Runner RadarRunner
}

var _ ingest.Codec = RadarCodec{}

// App implements ingest.Codec.
func (c RadarCodec) App() string { return "radar" }

// Decode implements ingest.Codec. Input fields (all optional): "seed"
// varies the clutter, "target_gate"/"target_doppler" place the echo. An
// absent target field takes the runner's default; a present one, 0
// included, places the echo there.
func (c RadarCodec) Decode(input json.RawMessage) (fxrt.DataSet, error) {
	var req struct {
		Seed          int  `json:"seed"`
		TargetGate    *int `json:"target_gate"`
		TargetDoppler *int `json:"target_doppler"`
	}
	if len(input) > 0 {
		if err := json.Unmarshal(input, &req); err != nil {
			return nil, fmt.Errorf("radar input: %w", err)
		}
	}
	pulses, gates := c.Runner.dims()
	tg, td := c.Runner.target()
	if req.TargetGate != nil {
		tg = *req.TargetGate
	}
	if req.TargetDoppler != nil {
		td = *req.TargetDoppler
	}
	if tg < 0 || tg >= gates {
		return nil, fmt.Errorf("radar input: target_gate %d outside [0, %d)", tg, gates)
	}
	if td < 0 || td >= pulses {
		return nil, fmt.Errorf("radar input: target_doppler %d outside [0, %d)", td, pulses)
	}
	return c.Runner.inputAt(req.Seed, tg, td), nil
}

// Encode implements ingest.Codec: the detection count and the strongest
// detections (up to 5, by power). Encode is the data set's last reader on
// the serving path: it recycles the data set's cubes.
func (c RadarCodec) Encode(out fxrt.DataSet) (any, error) {
	rd, ok := out.(*RadarData)
	if !ok {
		return nil, fmt.Errorf("radar output: got %T, want radar data", out)
	}
	defer rd.release()
	dets := append([]kernels.Detection(nil), rd.Dets...)
	sort.Slice(dets, func(i, j int) bool { return dets[i].Power > dets[j].Power })
	if len(dets) > 5 {
		dets = dets[:5]
	}
	top := make([]map[string]any, 0, len(dets))
	for _, d := range dets {
		top = append(top, map[string]any{
			"doppler": d.Doppler,
			"range":   d.Range,
			"power":   finite(d.Power),
		})
	}
	return map[string]any{
		"detections": len(rd.Dets),
		"top":        top,
	}, nil
}

// StereoCodec adapts stereo submissions: the input selects a synthetic
// scene; the result reports the recovered depth map's accuracy against the
// scene's true disparity.
type StereoCodec struct {
	Runner StereoRunner
}

var _ ingest.Codec = StereoCodec{}

// App implements ingest.Codec.
func (c StereoCodec) App() string { return "stereo" }

// Decode implements ingest.Codec. Input: optional {"seed": k}.
func (c StereoCodec) Decode(input json.RawMessage) (fxrt.DataSet, error) {
	var req struct {
		Seed int `json:"seed"`
	}
	if len(input) > 0 {
		if err := json.Unmarshal(input, &req); err != nil {
			return nil, fmt.Errorf("stereo input: %w", err)
		}
	}
	return c.Runner.input(req.Seed), nil
}

// Encode implements ingest.Codec: depth map dimensions, mean recovered
// disparity, and accuracy against the synthetic scene.
func (c StereoCodec) Encode(out fxrt.DataSet) (any, error) {
	sd, ok := out.(*StereoData)
	if !ok {
		return nil, fmt.Errorf("stereo output: got %T, want stereo data", out)
	}
	var mean float64
	if len(sd.Depth.Pix) > 0 {
		for _, v := range sd.Depth.Pix {
			mean += v
		}
		mean /= float64(len(sd.Depth.Pix))
	}
	return map[string]any{
		"width":      sd.Depth.W,
		"height":     sd.Depth.H,
		"mean_depth": finite(mean),
		"accuracy":   finite(c.Runner.VerifyDepth(sd)),
	}, nil
}
