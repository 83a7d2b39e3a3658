package apps

import (
	"encoding/json"
	"testing"

	"pipemap/internal/ingest"
)

// FuzzCodecDecode feeds arbitrary submit inputs to every application
// codec. Decode parses untrusted request bodies, so each input must yield
// a data set or an error, never a panic.
func FuzzCodecDecode(f *testing.F) {
	for _, in := range []string{
		``, `{}`, `null`, `not json`, `{"seed":7}`, `{"seed":-1}`,
		`{"data":[1,2,3]}`, `{"target_gate":5,"target_doppler":2}`, `{"target_gate":-4}`,
		`{"seed":3,"target_gate":0,"target_doppler":0}`,
	} {
		f.Add(in)
	}
	codecs := []ingest.Codec{
		FFTHistCodec{Runner: FFTHistRunner{N: 8}},
		RadarCodec{Runner: RadarRunner{Pulses: 8, Gates: 32}},
		StereoCodec{Runner: StereoRunner{W: 16, H: 8}},
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, c := range codecs {
			ds, err := c.Decode(json.RawMessage(input))
			if err == nil && ds == nil {
				t.Errorf("%s: Decode(%q) returned neither a data set nor an error", c.App(), input)
			}
		}
	})
}
