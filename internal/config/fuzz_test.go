package config

import "testing"

// FuzzParseJSON feeds untrusted configuration JSON — the snaked wire format
// for GPU overrides — through ParseJSON. It must never panic, and whatever
// it accepts must be a valid configuration with a usable slack bound that
// round-trips exactly through its canonical encoding, as json.go promises
// and cache keys rely on. The seed corpus is under
// testdata/fuzz/FuzzParseJSON.
func FuzzParseJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseJSON(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ParseJSON accepted an invalid config: %v", err)
		}
		if b := g.SlackBound(); b < 1 {
			t.Fatalf("ParseJSON accepted a config with slack bound %d", b)
		}
		enc, err := g.JSON()
		if err != nil {
			t.Fatalf("accepted config does not encode: %v", err)
		}
		back, err := ParseJSON(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not parse back: %v\n%s", err, enc)
		}
		if back != g {
			t.Fatalf("round trip changed the config:\nbefore %+v\nafter  %+v", g, back)
		}
	})
}
