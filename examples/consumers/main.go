// Consumers: the compiler optimisations the paper's prediction feeds —
// Pettis–Hansen code positioning and superblock (trace) formation — run on
// one workload before and after code replication, showing that replication
// both lays out better and gives a scheduler more straight-line scope.
//
//	go run ./examples/consumers [-workload NAME]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/profile"
	"repro/internal/replicate"
	"repro/internal/statemachine"
	"repro/internal/superblock"
	"repro/internal/trace"
)

func main() {
	workload := flag.String("workload", "scheduler", "workload name")
	budget := flag.Uint64("budget", 500_000, "branch events per run")
	flag.Parse()

	w, err := bench.ByName(*workload)
	if err != nil {
		log.Fatal(err)
	}
	c, err := bench.Compile(w)
	if err != nil {
		log.Fatal(err)
	}

	// Profile the original, then replicate.
	rc := core.RunConfig{Budget: *budget}
	prof, err := core.Profile(c.Prog, c.NSites, profile.Options{}, rc)
	if err != nil {
		log.Fatal(err)
	}
	sel := core.Plan(prof, c.Features, statemachine.Options{MaxStates: 5, MaxPathLen: 1})
	clone, st, err := core.Apply(c.Prog, sel, replicate.Options{MaxSizeFactor: 3}, false)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("consumers on %q (replicated at %.2fx size)\n\n", w.Name, st.SizeFactor())
	fmt.Printf("  %-34s %10s %10s\n", "", "original", "replicated")
	origLay, origScope := measure(c.Prog, rc)
	replLay, replScope := measure(clone, rc)
	phO := layoutRate(c.Prog, rc, true)
	phR := layoutRate(clone, rc, true)
	fmt.Printf("  %-34s %9.2f%% %9.2f%%\n", "taken transfers, naive layout", origLay, replLay)
	fmt.Printf("  %-34s %9.2f%% %9.2f%%\n", "taken transfers, PH layout", phO, phR)
	fmt.Printf("  %-34s %10.1f %10.1f\n", "avg dynamic trace length (instrs)", origScope, replScope)
}

// measure profiles a program and returns (naive-layout taken rate, avg
// dynamic trace length).
func measure(prog *ir.Program, rc core.RunConfig) (float64, float64) {
	bc, counts := runCounts(prog, rc)
	lay := layout.EvaluateProgram(prog, bc, counts, false)
	scope := superblock.MeasureProgram(prog, bc, counts)
	return lay.TakenRate(), scope.AvgDynamicLength()
}

func layoutRate(prog *ir.Program, rc core.RunConfig, ph bool) float64 {
	bc, counts := runCounts(prog, rc)
	return layout.EvaluateProgram(prog, bc, counts, ph).TakenRate()
}

func runCounts(prog *ir.Program, rc core.RunConfig) ([][]uint64, *trace.Counts) {
	counts := trace.NewCounts(prog.NumberBranches(false))
	e, err := core.Exec(prog, rc, func(m *interp.Machine) {
		m.EnableBlockCounts()
		m.Hook = counts.Branch
	})
	if err != nil {
		log.Fatal(err)
	}
	return e.BlockCounts(), counts
}
