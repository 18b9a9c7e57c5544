package harness

import (
	"context"
	"fmt"

	"snake/internal/chains"
	"snake/internal/core"
	"snake/internal/energy"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/workloads"
)

// Experiment regenerates one paper figure or table.
type Experiment func(r *Runner) (*Table, error)

// Experiments maps experiment IDs ("fig3" … "fig25", "table1" … "table3")
// to their implementations.
var Experiments = map[string]Experiment{
	"fig3":   Fig3,
	"fig4":   Fig4,
	"fig5":   Fig5,
	"fig6":   Fig6,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig16":  Fig16,
	"fig17":  Fig17,
	"fig18":  Fig18,
	"fig19":  Fig19,
	"fig20":  Fig20,
	"fig21":  Fig21,
	"fig22":  Fig22,
	"fig23":  Fig23,
	"fig24":  Fig24,
	"fig25":  Fig25,
	"table1": Table1,
	"table2": Table2,
	"table3": Table3,
	// Extensions beyond the paper's evaluation.
	"ext-cpu":      ExtCPUPrefetchers,
	"ext-sched":    ExtSchedulerHead,
	"ext-appchain": ExtAppChain,
}

// ExperimentIDs returns the IDs in presentation order.
func ExperimentIDs() []string {
	ids := []string{
		"fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"fig23", "fig24", "fig25", "table1", "table2", "table3",
		"ext-cpu", "ext-sched", "ext-appchain",
	}
	// Guard against drift between the slice and the map.
	if len(ids) != len(Experiments) {
		panic("harness: ExperimentIDs out of sync with Experiments")
	}
	return ids
}

// benchList is the Table 2 benchmark order.
func benchList() []string { return workloads.Names() }

// baselineMetric builds a one-column table of a baseline-run metric.
func (r *Runner) baselineMetric(id, title, col string, f func(*stats.Sim) float64, note string) (*Table, error) {
	if err := r.Prefill(benchList(), []string{"baseline"}); err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Columns: []string{"benchmark", col}, Note: note}
	for _, b := range benchList() {
		st, err := r.Run(b, "baseline")
		if err != nil {
			return nil, err
		}
		t.AddRow(b, f(st))
	}
	t.Mean("mean")
	return t, nil
}

// Fig3 reports reservation fails normalized to total L1 accesses.
func Fig3(r *Runner) (*Table, error) {
	return r.baselineMetric("fig3", "Reservation fails / total L1 accesses (baseline)",
		"resfail-frac", func(s *stats.Sim) float64 { return s.ReservationFailRate() },
		"paper: ~30% average across memory-bound applications")
}

// Fig4 reports interconnect bandwidth utilization.
func Fig4(r *Runner) (*Table, error) {
	return r.baselineMetric("fig4", "L1<->L2 bandwidth utilization (baseline)",
		"bw-util", func(s *stats.Sim) float64 { return s.BandwidthUtilization() },
		"paper: ~33% of theoretical bandwidth")
}

// Fig5 reports memory stalls over all stalls.
func Fig5(r *Runner) (*Table, error) {
	return r.baselineMetric("fig5", "Cycles all warps wait on memory / total stalls (baseline)",
		"memstall-frac", func(s *stats.Sim) float64 { return s.MemStallFraction() },
		"paper: ~55% of run-time stalls are memory stalls")
}

// coverageTable builds coverage/accuracy grids over mechanisms.
func (r *Runner) coverageTable(id, title string, mechs []string, f func(*stats.Sim) float64, note string) (*Table, error) {
	if err := r.Prefill(benchList(), mechs); err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Columns: append([]string{"benchmark"}, mechs...), Note: note}
	for _, b := range benchList() {
		vals := make([]float64, len(mechs))
		for i, m := range mechs {
			st, err := r.Run(b, m)
			if err != nil {
				return nil, err
			}
			vals[i] = f(st)
		}
		t.AddRow(b, vals...)
	}
	t.Mean("mean")
	return t, nil
}

// Fig6 compares prior mechanisms' coverage against the Ideal prefetcher.
func Fig6(r *Runner) (*Table, error) {
	return r.coverageTable("fig6", "Coverage of prior mechanisms vs Ideal",
		[]string{"intra", "inter", "mta", "cta", "ideal"},
		func(s *stats.Sim) float64 { return s.Coverage() },
		"paper: Ideal ≈ 25% above MTA and ≈ 70% above CTA-aware")
}

// chainStats memoizes the offline chain analysis.
func (r *Runner) chainStats() (map[string]chains.Stats, error) {
	out := make(map[string]chains.Stats, len(benchList()))
	for _, b := range benchList() {
		k, err := workloads.Build(b, r.Scale)
		if err != nil {
			return nil, err
		}
		out[b] = chains.Analyze(k)
	}
	return out, nil
}

// Fig9 reports the fraction of load PCs participating in chains.
func Fig9(r *Runner) (*Table, error) {
	cs, err := r.chainStats()
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig9", Title: "PC_lds in chains / total PC_lds (representative warp)",
		Columns: []string{"benchmark", "chain-pc-frac"},
		Note:    "paper: chains cover ~65% of load PCs on average"}
	for _, b := range benchList() {
		t.AddRow(b, cs[b].PCFraction())
	}
	t.Mean("mean")
	return t, nil
}

// Fig10 reports the maximum chain repetition within a representative warp.
func Fig10(r *Runner) (*Table, error) {
	cs, err := r.chainStats()
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig10", Title: "Max repetition of a chain within a representative warp",
		Columns: []string{"benchmark", "max-repetition"},
		Note:    "paper: chains repeat ~35 times per warp on average"}
	for _, b := range benchList() {
		t.AddRow(b, float64(cs[b].MaxRepetition))
	}
	t.Mean("mean")
	return t, nil
}

// Fig11 compares chain-prefetchable accesses against MTA-prefetchable ones.
func Fig11(r *Runner) (*Table, error) {
	cs, err := r.chainStats()
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig11", Title: "Accesses prefetchable by chains vs MTA (trace analysis)",
		Columns: []string{"benchmark", "chains", "mta"},
		Note:    "paper: chains ≈ 70% (≈ 15% above MTA)"}
	for _, b := range benchList() {
		t.AddRow(b, cs[b].ChainCoverage, cs[b].MTACoverage)
	}
	t.Mean("mean")
	return t, nil
}

// Fig16 reports coverage of all evaluated mechanisms.
func Fig16(r *Runner) (*Table, error) {
	return r.coverageTable("fig16", "Prefetch coverage", Fig16Order,
		func(s *stats.Sim) float64 { return s.Coverage() },
		"paper: Snake ≈ 80% (≈ 15% above MTA); s-Snake ≈ 70%; throttle costs ≈ 2%")
}

// Fig17 reports accuracy (timely coverage).
func Fig17(r *Runner) (*Table, error) {
	return r.coverageTable("fig17", "Prefetch accuracy (timely coverage)", Fig16Order,
		func(s *stats.Sim) float64 { return s.Accuracy() },
		"paper: Snake ≈ 75% (≈ 55% above CTA-aware); throttle buys ≈ 20%")
}

// Fig18 reports IPC normalized to the baseline.
func Fig18(r *Runner) (*Table, error) {
	if err := r.Prefill(benchList(), append([]string{"baseline"}, Fig16Order...)); err != nil {
		return nil, err
	}
	t := &Table{ID: "fig18", Title: "IPC normalized to baseline",
		Columns: append([]string{"benchmark"}, Fig16Order...),
		Note:    "paper: Snake +17% average (up to +60%, LIB); Snake beats Snake-DT by 13% and Snake-T by 7%"}
	for _, b := range benchList() {
		base, err := r.Run(b, "baseline")
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(Fig16Order))
		for i, m := range Fig16Order {
			st, err := r.Run(b, m)
			if err != nil {
				return nil, err
			}
			vals[i] = st.IPC() / base.IPC()
		}
		t.AddRow(b, vals...)
	}
	t.Mean("mean")
	return t, nil
}

// Fig19 reports energy normalized to the baseline.
func Fig19(r *Runner) (*Table, error) {
	if err := r.Prefill(benchList(), []string{"baseline", "snake"}); err != nil {
		return nil, err
	}
	model := energy.Default()
	t := &Table{ID: "fig19", Title: "Snake energy normalized to baseline",
		Columns: []string{"benchmark", "energy-norm"},
		Note:    "paper: ~17% less energy on average"}
	for _, b := range benchList() {
		base, err := r.Run(b, "baseline")
		if err != nil {
			return nil, err
		}
		sn, err := r.Run(b, "snake")
		if err != nil {
			return nil, err
		}
		e0 := model.Estimate(base, r.Cfg, false).Total()
		e1 := model.Estimate(sn, r.Cfg, true).Total()
		t.AddRow(b, e1/e0)
	}
	t.Mean("mean")
	return t, nil
}

// tailSweepSizes are the Tail-table entry counts swept in Figures 20–22;
// 1000 stands in for the unbounded table the paper compares against.
var tailSweepSizes = []int{3, 5, 10, 20, 1000}

// Fig20 sweeps the Tail-table entry count (combined eviction policy).
func Fig20(r *Runner) (*Table, error) {
	return r.tailSweep("fig20", "Coverage vs Tail-table entries (LRU+popcount eviction)", true,
		"paper: only ~8% coverage lost at 10 entries vs unbounded")
}

// Fig22 repeats the sweep with the popcount-only eviction policy.
func Fig22(r *Runner) (*Table, error) {
	return r.tailSweep("fig22", "Coverage vs Tail-table entries (popcount-only eviction)", false,
		"paper: clearly below the combined LRU+popcount policy of fig20")
}

func (r *Runner) tailSweep(id, title string, lru bool, note string) (*Table, error) {
	cols := []string{"benchmark"}
	for _, n := range tailSweepSizes {
		cols = append(cols, fmt.Sprintf("entries=%d", n))
	}
	t := &Table{ID: id, Title: title, Columns: cols, Note: note}
	var cells []Variant
	for _, b := range benchList() {
		for _, n := range tailSweepSizes {
			cfg := core.Defaults()
			cfg.TailEntries = n
			cfg.EvictPopcountOnly = !lru
			cells = append(cells, Variant{b, fmt.Sprintf("%s-e%d-lru%v", id, n, lru), cfg})
		}
	}
	sts, err := r.RunVariants(context.Background(), cells)
	if err != nil {
		return nil, err
	}
	for i, b := range benchList() {
		row := sts[i*len(tailSweepSizes) : (i+1)*len(tailSweepSizes)]
		vals := make([]float64, len(row))
		for j, st := range row {
			vals[j] = st.Coverage()
		}
		t.AddRow(b, vals...)
	}
	t.Mean("mean")
	return t, nil
}

// Fig21 reports the storage cost versus Tail-table entries (analytic).
func Fig21(r *Runner) (*Table, error) {
	t := &Table{ID: "fig21", Title: "Snake storage (bytes) vs Tail-table entries",
		Columns: []string{"entries", "head-bytes", "tail-bytes", "total-bytes"},
		Note:    "Table 3 point: 10 entries -> 448 + 320 = 768 bytes per SM"}
	for _, n := range []int{5, 10, 20, 40, 80} {
		cfg := core.Defaults()
		cfg.TailEntries = n
		c := core.CostOf(cfg)
		t.AddRow(fmt.Sprintf("%d", n), float64(c.HeadBytes()), float64(c.TailBytes()), float64(c.TotalBytes()))
	}
	return t, nil
}

// throttleIntervals swept in Figure 23.
var throttleIntervals = []int{10, 25, 50, 100, 200, 400}

// Fig23 sweeps the throttling halt interval: accuracy/coverage trade-off.
func Fig23(r *Runner) (*Table, error) {
	t := &Table{ID: "fig23", Title: "Accuracy & coverage vs throttle interval (mean over benchmarks)",
		Columns: []string{"interval", "accuracy", "coverage"},
		Note:    "paper: 50 cycles gives ~75% accuracy at only ~2% coverage loss"}
	benches := benchList()
	var cells []Variant
	for _, iv := range throttleIntervals {
		cfg := core.Defaults()
		cfg.ThrottleCycles = iv
		for _, b := range benches {
			cells = append(cells, Variant{b, fmt.Sprintf("fig23-%d", iv), cfg})
		}
	}
	sts, err := r.RunVariants(context.Background(), cells)
	if err != nil {
		return nil, err
	}
	n := float64(len(benches))
	for i, iv := range throttleIntervals {
		var acc, cov float64
		for _, st := range sts[i*len(benches) : (i+1)*len(benches)] {
			acc += st.Accuracy()
			cov += st.Coverage()
		}
		t.AddRow(fmt.Sprintf("%d", iv), acc/n, cov/n)
	}
	return t, nil
}

// tileFracs swept in Figure 24 (fraction of the unified cache).
var tileFracs = []float64{0.25, 0.50, 0.75, 1.00}

// Fig24 evaluates tiling with and without Snake.
func Fig24(r *Runner) (*Table, error) {
	model := energy.Default()
	t := &Table{ID: "fig24", Title: "Tiled convolution: IPC and energy vs tile size (normalized to untiled baseline)",
		Columns: []string{"config", "ipc-norm", "energy-norm"},
		Note:    "paper: best at 75% tile; Snake+Tiled ≈ 2.6x/1.9x/1.7x the improvement of Tiled alone at 25/50/75%"}

	// The tiled workloads are not in the benchmark registry; they run
	// through runKernel with synthetic memoization keys.
	type res struct {
		ipc, energy float64
	}
	runTiled := func(frac float64, snake bool) (res, error) {
		k := workloads.TiledConv(r.Scale, frac, r.Cfg.DataCacheBytes())
		mechName := "baseline"
		if snake {
			mechName = "snake"
		}
		st, err := r.runKernel(k, fmt.Sprintf("tiled%.2f", frac), mechName)
		if err != nil {
			return res{}, err
		}
		return res{ipc: st.IPC(), energy: model.Estimate(st, r.Cfg, snake).Total()}, nil
	}
	base, err := runTiled(0, false)
	if err != nil {
		return nil, err
	}
	for _, frac := range tileFracs {
		tl, err := runTiled(frac, false)
		if err != nil {
			return nil, err
		}
		sn, err := runTiled(frac, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("tiled-%.0f%%", frac*100), tl.ipc/base.ipc, tl.energy/base.energy)
		t.AddRow(fmt.Sprintf("snake+tiled-%.0f%%", frac*100), sn.ipc/base.ipc, sn.energy/base.energy)
	}
	return t, nil
}

// Fig25 reports the L1 hit rate for baseline, Snake, and Isolated-Snake.
func Fig25(r *Runner) (*Table, error) {
	mechs := []string{"baseline", "snake", "isolated-snake"}
	return r.coverageTable("fig25", "L1 data cache hit rate", mechs,
		func(s *stats.Sim) float64 { return s.L1HitRate() },
		"paper: 45% / 79% / 84% baseline / Snake / Isolated-Snake")
}

// Table1 prints the simulated GPU configuration.
func Table1(r *Runner) (*Table, error) {
	c := r.Cfg
	t := &Table{ID: "table1", Title: "GPU configuration (scaled from Table 1's V100)",
		Columns: []string{"parameter", "value"},
		Note:    "experiments run the scaled configuration; config.Default() holds the full Table 1 values"}
	t.AddRow("num-sm", float64(c.NumSM))
	t.AddRow("schedulers/sm", float64(c.SchedulersPerSM))
	t.AddRow("warps/sm", float64(c.MaxWarpsPerSM))
	t.AddRow("threads/sm", float64(c.ThreadsPerSM))
	t.AddRow("unified-kb", float64(c.Unified.SizeBytes/1024))
	t.AddRow("unified-ways", float64(c.Unified.Ways))
	t.AddRow("line-bytes", float64(c.Unified.LineSize))
	t.AddRow("l1-latency", float64(c.Unified.Latency))
	t.AddRow("mshr-entries", float64(c.MSHREntries))
	t.AddRow("mshr-merge", float64(c.MSHRMergeCap))
	t.AddRow("miss-queue", float64(c.MissQueueSize))
	t.AddRow("l2-partitions", float64(c.L2Partitions))
	t.AddRow("l2-kb/part", float64(c.L2.SizeBytes/1024))
	t.AddRow("dram-banks", float64(c.DRAMBanks))
	return t, nil
}

// Table2 lists the benchmark suite.
func Table2(r *Runner) (*Table, error) {
	t := &Table{ID: "table2", Title: "Benchmark suites (Table 2)",
		Columns: []string{"abbr", "loads", "insts"}}
	full := workloads.FullNames()
	names := benchList()
	note := ""
	for _, b := range names {
		k, err := workloads.Build(b, r.Scale)
		if err != nil {
			return nil, err
		}
		t.AddRow(b, float64(k.TotalLoads()), float64(k.TotalInsts()))
		note += b + "=" + full[b] + "; "
	}
	t.Note = note
	return t, nil
}

// ExtCPUPrefetchers is an extension experiment beyond the paper: the CPU
// prefetchers of §6.1 (Domino temporal, Bingo spatial), adapted to the GPU,
// against MTA and Snake. It quantifies the paper's argument that "hardware
// prefetchers designed for CPUs cannot be directly applied to GPUs": warp
// interleaving shreds Domino's temporal stream and dilutes Bingo's
// footprints.
func ExtCPUPrefetchers(r *Runner) (*Table, error) {
	mechs := []string{"domino", "bingo", "mta", "snake"}
	if err := r.Prefill(benchList(), append([]string{"baseline"}, mechs...)); err != nil {
		return nil, err
	}
	t := &Table{ID: "ext-cpu", Title: "CPU prefetchers on a GPU (extension): coverage and speedup",
		Columns: []string{"benchmark", "domino-cov", "bingo-cov", "domino-ipc", "bingo-ipc", "mta-ipc", "snake-ipc"},
		Note:    "§6.1's argument quantified: GPU warp interleaving defeats temporal/spatial CPU prefetching"}
	for _, b := range benchList() {
		base, err := r.Run(b, "baseline")
		if err != nil {
			return nil, err
		}
		var vals []float64
		for _, m := range []string{"domino", "bingo"} {
			st, err := r.Run(b, m)
			if err != nil {
				return nil, err
			}
			vals = append(vals, st.Coverage())
		}
		for _, m := range mechs {
			st, err := r.Run(b, m)
			if err != nil {
				return nil, err
			}
			vals = append(vals, st.IPC()/base.IPC())
		}
		t.AddRow(b, vals...)
	}
	t.Mean("mean")
	return t, nil
}

// ExtSchedulerHead is an extension experiment: the §3.1 doubled Head-table
// columns under the greedy GTO scheduler versus the single-column
// (non-greedy) layout, measured as Snake coverage.
func ExtSchedulerHead(r *Runner) (*Table, error) {
	single := core.Defaults()
	single.HeadSlotsPerRow = 1
	t := &Table{ID: "ext-sched", Title: "Doubled Head-table columns under GTO (extension)",
		Columns: []string{"benchmark", "doubled-cov", "single-cov"},
		Note:    "§3.1: a single column per row loses inter-warp tuples under an aggressive greedy scheduler"}
	for _, b := range benchList() {
		full, err := r.Run(b, "snake")
		if err != nil {
			return nil, err
		}
		st, err := r.SnakeVariant(b, "ext-singlehead", single)
		if err != nil {
			return nil, err
		}
		t.AddRow(b, full.Coverage(), st.Coverage())
	}
	t.Mean("mean")
	return t, nil
}

// ExtAppChain is an extension experiment beyond the paper: Snake's chain
// tables across kernel-launch boundaries. Each application workload runs
// twice — chain tables flushed at every launch (each kernel pays the full
// training warm-up) versus persisted across launches — and the table reports
// the whole-app speedup plus the prefetch coverage achieved on the launches
// after the first, where persistence pays off.
func ExtAppChain(r *Runner) (*Table, error) {
	t := &Table{ID: "ext-appchain", Title: "Snake chain persistence across kernel launches (extension)",
		Columns: []string{"app", "speedup", "tail-cov-flush", "tail-cov-persist"},
		Note:    "speedup = persistent-chain IPC / flushed-chain IPC; tail-cov = coverage on launches after the first"}
	tailCov := func(res *sim.AppResult) float64 {
		var covered, loads int64
		for _, l := range res.Launches[1:] {
			covered += l.Stats.Pf.Covered
			loads += l.Stats.Loads
		}
		if loads == 0 {
			return 0
		}
		return float64(covered) / float64(loads)
	}
	for _, app := range workloads.AppNames() {
		flush, err := r.RunApp(app, "snake", false)
		if err != nil {
			return nil, err
		}
		persist, err := r.RunApp(app, "snake", true)
		if err != nil {
			return nil, err
		}
		t.AddRow(app, persist.Stats.IPC()/flush.Stats.IPC(), tailCov(flush), tailCov(persist))
	}
	t.Mean("mean")
	return t, nil
}

// Table3 reports the hardware cost of Snake's tables.
func Table3(r *Runner) (*Table, error) {
	c := core.DefaultCost()
	t := &Table{ID: "table3", Title: "Snake table parameters (Table 3)",
		Columns: []string{"table", "bytes/entry", "entries", "total-bytes"},
		Note: fmt.Sprintf("paper: Head 14B x 32 = 448B, Tail 32B x 10 = 320B; latency %d cycles, %.1f pJ/access, %.0f mW static",
			core.LatencyCycles, core.AccessEnergyPJ, core.StaticPowerMW)}
	t.AddRow("head", float64(c.HeadBytesPerEntry), float64(c.HeadEntries), float64(c.HeadBytes()))
	t.AddRow("tail", float64(c.TailBytesPerEntry), float64(c.TailEntries), float64(c.TailBytes()))
	t.AddRow("total", 0, 0, float64(c.TotalBytes()))
	return t, nil
}
