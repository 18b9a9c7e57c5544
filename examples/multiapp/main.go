// Multiapp: the paper's §1 extension — "it can be extended to support
// multiple applications where the chains of strides are detected within
// each application". Three launches (lps, hotspot, lps) run as one
// dependency-chained App on one GPU, each launch waiting for the previous
// one to retire; the example compares carrying Snake's tables across the
// launch boundaries (Options.ChainPersistence) against resetting them per
// application, and shows a warm relaunch of the same kernel.
package main

import (
	"fmt"
	"log"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/prefetch"
	"snake/internal/sim"
	"snake/internal/trace"
	"snake/internal/workloads"
)

func main() {
	cfg := config.Scaled(4, 64)
	sc := workloads.DefaultScale()
	lps, err := workloads.Build("lps", sc)
	if err != nil {
		log.Fatal(err)
	}
	hotspot, err := workloads.Build("hotspot", sc)
	if err != nil {
		log.Fatal(err)
	}
	app := &trace.App{Name: "lps-hotspot-lps", Launches: []trace.KernelLaunch{
		{Kernel: lps},
		{Kernel: hotspot, DependsOn: []int{0}},
		{Kernel: lps, DependsOn: []int{1}},
	}}

	en := sim.NewEngine()
	defer en.Close()
	run := func(chain bool) *sim.AppResult {
		res, err := en.RunApp(app, sim.Options{
			Config:           cfg,
			NewPrefetcher:    func(int) prefetch.Prefetcher { return core.NewSnake() },
			ChainPersistence: chain,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	carry := run(true)
	scoped := run(false)

	fmt.Println("launch chain: lps -> hotspot -> lps (Snake prefetching)")
	fmt.Printf("\n%-12s %18s %18s\n", "launch", "tables carried", "tables per-app")
	for i := range carry.Launches {
		fmt.Printf("%-12s %12d cyc %14d cyc\n",
			carry.Launches[i].Kernel, carry.Launches[i].Stats.Cycles, scoped.Launches[i].Stats.Cycles)
	}
	fmt.Printf("%-12s %12d cyc %14d cyc\n", "total", carry.Stats.Cycles, scoped.Stats.Cycles)
	fmt.Printf("\ncoverage: carried %.1f%%, per-app %.1f%%\n",
		100*carry.Stats.Coverage(), 100*scoped.Stats.Coverage())
	fmt.Printf("\ncarrying tables across launches changes total cycles by %+.1f%% vs per-app scoping\n",
		100*(float64(carry.Stats.Cycles)/float64(scoped.Stats.Cycles)-1))
}
