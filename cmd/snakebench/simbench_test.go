package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGateSimBenchReportsEveryViolation pins the gate order: every row is
// judged, so two rows over the route+merge ceiling, a pooled parallel row
// that stopped being allocation-flat and two baseline regressions are all
// named in one error, and a passing or exempt row is named nowhere.
func TestGateSimBenchReportsEveryViolation(t *testing.T) {
	out := simBenchFile{
		MaxProcs: 2,
		Entries: []simBenchEntry{
			{Name: "lps-par4", Parallelism: 4, NsPerOp: 100},
			{Name: "mum-par4", Parallelism: 4, NsPerOp: 200},
			{Name: "nw-par4", Parallelism: 4, NsPerOp: 100},
			{Name: "lps-par1", Parallelism: 1, NsPerOp: 100},
			{Name: "nw-par1", Parallelism: 1, NsPerOp: 300},
			{Name: "lps-par1-reuse", Parallelism: 1, Reuse: true, AllocsPerOp: 100},
			{Name: "lps-par4-reuse", Parallelism: 4, Reuse: true, AllocsPerOp: 500},
		},
		RouteShare: map[string]float64{"lps-par4": 0.01, "mum-par4": 0.01, "nw-par4": 0.006, "lps-par1": 0.5},
		MergeShare: map[string]float64{"lps-par4": 0.01, "mum-par4": 0.09, "nw-par4": 0.064, "lps-par1": 0.5},
	}
	base := out
	base.Entries = []simBenchEntry{
		{Name: "lps-par4", Parallelism: 4, NsPerOp: 100},
		{Name: "mum-par4", Parallelism: 4, NsPerOp: 100},
		{Name: "nw-par1", Parallelism: 1, NsPerOp: 100},
	}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	err = gateSimBench(out, path)
	if err == nil {
		t.Fatal("gateSimBench passed a file with five violations")
	}
	msg := err.Error()
	for _, want := range []string{
		"mum-par4 route+merge share",
		"nw-par4 route+merge share",
		"lps-par4-reuse allocates",
		"mum-par4: 200 ns/op",
		"nw-par1: 300 ns/op",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("gate error misses %q:\n%s", want, msg)
		}
	}
	for _, clean := range []string{"lps-par4 route", "lps-par1 route", "lps-par4: "} {
		if strings.Contains(msg, clean) {
			t.Errorf("gate error names passing or exempt row %q:\n%s", clean, msg)
		}
	}

	if err := gateSimBench(simBenchFile{Entries: out.Entries[:1], RouteShare: out.RouteShare, MergeShare: out.MergeShare}, ""); err != nil {
		t.Errorf("a clean file without a baseline failed the gates: %v", err)
	}
}
