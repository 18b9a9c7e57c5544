package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"snake/internal/core"
)

// The self-test runs every workload at a tiny size (a few seconds in all),
// so it suits `go test -short`:
//
//	go -C perfbench test -short ./...

var workloadNames = []string{"paper-grid", "wide-gpu", "serve-mixed"}

func tinyConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 7, seconds: 1, trace: trace, procs: 2, dir: t.TempDir(), size: tinySizes()}
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricsMatchBenchmarkFile checks that the benchmark reports exactly the
// workloads and metrics BENCHMARK.json names, with the same units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for i := range names {
		if names[i] != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
		}
	}
	want := map[string]metric{}
	for _, m := range f.EndToEnd {
		want[m.Name] = metric{name: m.Name, unit: m.Unit, endToEnd: true}
	}
	for _, m := range f.PerLayer {
		want[m.Name] = metric{name: m.Name, unit: m.Unit}
	}
	if len(want) != len(allMetrics) {
		t.Errorf("BENCHMARK.json names %d metrics, the benchmark reports %d", len(want), len(allMetrics))
	}
	for _, m := range allMetrics {
		if want[m.name] != m {
			t.Errorf("metric %+v: BENCHMARK.json has %+v", m, want[m.name])
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload untraced and traced (the
// traced run with an odd and an even seed, which order its two halves
// differently) and checks that each mode prints every metric of its set,
// with no failures.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, c := range []struct {
			trace bool
			seed  int64
		}{{false, 7}, {true, 7}, {true, 8}} {
			trace := c.trace
			rc := tinyConfig(t, trace)
			rc.seed = c.seed
			rep, err := run(name, rc)
			if err != nil {
				t.Fatalf("%s trace=%v seed=%d: %v", name, trace, c.seed, err)
			}
			out := rep.output(trace)
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, out.Correct, out.Attempted, out.Failed)
			}
			for _, m := range allMetrics {
				got, ok := out.Metrics[m.name]
				if ok != (m.endToEnd != trace) {
					t.Errorf("%s trace=%v: metric %s present=%v", name, trace, m.name, ok)
				}
				if ok && got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, m.name, got.Unit, m.unit)
				}
			}
			if trace {
				checkChromeTrace(t, rep.info["trace_file"].(string))
			} else {
				for _, m := range allMetrics {
					if v := out.Metrics[m.name].Value; m.endToEnd && v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v)
					}
				}
			}
		}
	}
}

// checkChromeTrace checks that the traced run wrote complete trace events,
// including a root span for each operation.
func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	roots := 0
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("%s: bad event %+v", path, e)
		}
		if e.Args["parent"] == 0 && e.Args["op"] == e.Args["id"] {
			roots++
		}
	}
	if roots == 0 {
		t.Errorf("%s: no operation root spans among %d events", path, len(f.TraceEvents))
	}
}

// TestCorruptResultCountsAsFailure falsifies one simulated result in each
// workload and checks that the run reports it as incorrect and failed.
func TestCorruptResultCountsAsFailure(t *testing.T) {
	for _, name := range workloadNames {
		rc := tinyConfig(t, false)
		rc.corrupt = true
		rep, err := run(name, rc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := rep.output(false)
		if out.Correct || out.Failed < 1 {
			t.Errorf("%s: corrupted result not caught: correct=%v failed=%d", name, out.Correct, out.Failed)
		}
		if ok := out.Metrics["ok_frac"].Value; ok >= 1 {
			t.Errorf("%s: ok_frac = %v with a corrupted result", name, ok)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.99, 4.96}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

// TestFreshKeysAreOneKnobAndDistinct checks that serve-mixed's fresh jobs
// vary one knob from core.Defaults, as a snakesweep user does, and never
// repeat a key before the key set is exhausted.
func TestFreshKeysAreOneKnobAndDistinct(t *testing.T) {
	s := newServe(tinyConfig(t, false))
	for _, c := range freshConfigs() {
		d := reflect.ValueOf(core.Defaults())
		v := reflect.ValueOf(c)
		changed := 0
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Interface() != d.Field(i).Interface() {
				changed++
			}
		}
		if changed != 1 {
			t.Fatalf("fresh configuration %+v changes %d knobs, want 1", c, changed)
		}
	}
	seen := map[freshKey]bool{}
	for i := 0; i < 2000; i++ {
		op := s.gen.next()
		var keys []freshKey
		switch op.kind {
		case kindFreshSim:
			keys = append(keys, freshKey{op.run.Bench, false, *op.run.Snake})
		case kindApp:
			keys = append(keys, freshKey{op.run.App, op.run.Chain, *op.run.Snake})
		case kindSweep:
			for _, b := range op.sweep.Benches {
				keys = append(keys, freshKey{b, false, *op.sweep.Snake})
			}
		}
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("operation %d repeats fresh key %+v", i, k)
			}
			seen[k] = true
		}
	}
	if s.gen.resets != 0 {
		t.Errorf("key set exhausted after 2000 operations (%d resets)", s.gen.resets)
	}
}
