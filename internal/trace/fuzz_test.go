package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"snake/internal/config"
	"snake/internal/sim"
	"snake/internal/trace"
)

// FuzzReadAppJSON feeds untrusted app files through the reader and, when one
// decodes and validates, through the simulator: on a tiny machine with a
// small cycle budget, cycle skipping on and off must agree exactly — equal
// Stats and per-launch records, or the same error — and neither may panic.
// The seed corpus is under testdata/fuzz/FuzzReadAppJSON.
func FuzzReadAppJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := trace.ReadAppJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		run := func(disableSkip bool) (*sim.AppResult, error) {
			en := sim.NewEngine()
			defer en.Close()
			return en.RunApp(a, sim.Options{
				Config:      config.Scaled(2, 8),
				MaxCycles:   20_000,
				DisableSkip: disableSkip,
			})
		}
		skip, errSkip := run(false)
		step, errStep := run(true)
		switch {
		case errSkip != nil || errStep != nil:
			if errSkip == nil || errStep == nil || errSkip.Error() != errStep.Error() {
				t.Fatalf("skip and per-cycle runs disagree: skip err %v, per-cycle err %v", errSkip, errStep)
			}
		case !reflect.DeepEqual(skip.Stats, step.Stats) || !reflect.DeepEqual(skip.Launches, step.Launches):
			t.Fatalf("skip and per-cycle runs diverge\n skip:      %+v\n per-cycle: %+v", skip.Stats, step.Stats)
		}
	})
}
