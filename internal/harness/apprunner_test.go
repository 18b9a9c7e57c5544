package harness

import (
	"reflect"
	"testing"

	"snake/internal/sim"
	"snake/internal/workloads"
)

// TestRunnerAppMemoizes: app runs are memoized per (app, mech, chain), the
// two chain policies occupy distinct cache slots, and the pooled harness path
// is bit-identical to a direct Engine.RunApp with the same options.
func TestRunnerAppMemoizes(t *testing.T) {
	r := tinyRunner()
	a1, err := r.RunApp("warmup", "snake", true)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.RunApp("warmup", "snake", true)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("second RunApp did not return the memoized result")
	}
	flushed, err := r.RunApp("warmup", "snake", false)
	if err != nil {
		t.Fatal(err)
	}
	if flushed == a1 {
		t.Error("chain policies share one cache slot")
	}

	f, err := Mechanism("snake")
	if err != nil {
		t.Fatal(err)
	}
	app, _, err := r.store().App("warmup", r.Scale, r.Cfg.NumSM, r.Split)
	if err != nil {
		t.Fatal(err)
	}
	en := sim.NewEngine()
	defer en.Close()
	want, err := en.RunApp(app, sim.Options{
		Config: r.Cfg, NewPrefetcher: f, ChainPersistence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, want) {
		t.Error("harness app run diverges from a direct Engine.RunApp")
	}
}

// TestRunnerAppFailuresNotCached mirrors the kernel-path contract.
func TestRunnerAppFailuresNotCached(t *testing.T) {
	r := tinyRunner()
	if _, err := r.RunApp("nope", "snake", false); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := r.RunApp("warmup", "bogus", false); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	r.mu.Lock()
	n := len(r.cache)
	r.mu.Unlock()
	if n != 0 {
		t.Errorf("failed app runs left %d cache entries", n)
	}
}

// TestRunKeyHashApp: the app fields participate in the content address, and
// their zero values leave single-kernel keys untouched (omitempty — existing
// cached results stay valid).
func TestRunKeyHashApp(t *testing.T) {
	r := tinyRunner()
	key, err := r.AppKey("cotenant", "snake", false)
	if err != nil {
		t.Fatal(err)
	}
	if key.AppDigest == "" {
		t.Fatal("AppKey returned no digest")
	}
	variants := []RunKey{key, key, key}
	variants[0].App = "fanout"
	variants[1].AppDigest = "0000"
	variants[2].Chain = true
	for i, v := range variants {
		if v.Hash() == key.Hash() {
			t.Errorf("app variant %d collides with base", i)
		}
	}
	// A different Split reshapes the masks, so the digest (and key) moves.
	r2 := tinyRunner()
	r2.Split = 1
	if r2.Cfg.NumSM <= 2 {
		r2.Cfg.NumSM = 4 // ensure split=1 differs from the even halving
	}
	key2, err := r2.AppKey("cotenant", "snake", false)
	if err != nil {
		t.Fatal(err)
	}
	if key2.AppDigest == key.AppDigest && key2.GPU == key.GPU {
		t.Error("different Split produced the same digest")
	}

	kernel := RunKey{Bench: "lps", Mech: "snake", GPU: r.Cfg, Scale: r.Scale}
	withZeroApp := kernel
	withZeroApp.App, withZeroApp.AppDigest, withZeroApp.Chain = "", "", false
	if kernel.Hash() != withZeroApp.Hash() {
		t.Error("zero app fields perturb single-kernel hashes")
	}
}

// TestEnginePoolRunApp: the pool's app path recycles engines with the
// kernel path (shared machine shape) and stays bit-identical to fresh runs.
func TestEnginePoolRunApp(t *testing.T) {
	r := tinyRunner()
	app, _, err := r.store().App("pipeline", r.Scale, r.Cfg.NumSM, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Mechanism("mta")
	if err != nil {
		t.Fatal(err)
	}
	opt := sim.Options{Config: r.Cfg, NewPrefetcher: f}
	en := sim.NewEngine()
	defer en.Close()
	want, err := en.RunApp(app, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := NewEnginePool()
	for i := 0; i < 2; i++ {
		got, err := p.RunApp(app, opt, "mta")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pooled app run %d diverges from fresh", i)
		}
	}
	k, err := workloads.Build("lps", r.Scale)
	if err != nil {
		t.Fatal(err)
	}
	wantK, err := sim.Run(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotK, err := p.Run(k, opt, "mta")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotK, wantK) {
		t.Error("kernel run on an app-warmed pool diverges from fresh")
	}
}
