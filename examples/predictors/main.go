// Predictors: run the whole predictor zoo over one built-in workload — the
// paper's Table 1 for a single column — including the nine [YN93] two-level
// combinations that motivated the semi-static adaptation.
//
//	go run ./examples/predictors [-workload NAME] [-budget N]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/trace"
)

func main() {
	workload := flag.String("workload", "abalone", "workload name")
	budget := flag.Uint64("budget", 500_000, "branch events to trace")
	flag.Parse()

	w, err := bench.ByName(*workload)
	if err != nil {
		log.Fatal(err)
	}
	c, err := bench.Compile(w)
	if err != nil {
		log.Fatal(err)
	}

	// Dynamic predictors, simulated over the trace.
	evals := []*predict.Eval{
		{P: predict.NewLastDirection(c.NSites)},
		{P: predict.NewTwoBit(c.NSites)},
		{P: predict.NewGShare(12)},
	}
	// The nine [YN93] two-level combinations (sets of 64 where scoped).
	for _, hs := range []predict.Scope{predict.ScopeGlobal, predict.ScopeSet, predict.ScopePerBranch} {
		for _, ps := range []predict.Scope{predict.ScopeGlobal, predict.ScopeSet, predict.ScopePerBranch} {
			cfg := predict.TwoLevelConfig{
				HistScope: hs, HistBits: 9,
				PatScope: ps,
			}
			if hs != predict.ScopeGlobal {
				cfg.HistEntries = 64
			}
			if ps != predict.ScopeGlobal {
				cfg.PatEntries = 64
			}
			evals = append(evals, &predict.Eval{P: predict.NewTwoLevel(cfg)})
		}
	}
	prof := profile.New(c.NSites, profile.Options{})
	sinks := trace.Multi{prof}
	for _, e := range evals {
		sinks = append(sinks, e)
	}
	if _, err := c.Run(core.RunConfig{Budget: *budget}, sinks); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("predictor comparison on %q (%d branch events)\n\n", w.Name, *budget)
	fmt.Printf("  %-28s  %8s\n", "strategy", "miss%")
	for _, e := range evals {
		fmt.Printf("  %-28s  %8.2f\n", e.P.Name(), e.Rate())
	}
	show := func(name string, r predict.Result) {
		fmt.Printf("  %-28s  %8.2f\n", name, r.Rate())
	}
	show("profile (semi-static)", predict.ProfileResult(prof.Counts))
	show("9 bit loop (semi-static)", predict.LoopResult(prof.Local))
	show("9 bit correlation (s-s)", predict.CorrelationResult(prof.Global))
	lc, improved := predict.LoopCorrelationResult(prof.Local, prof.Global, prof.Counts)
	show("loop-correlation (s-s)", lc)
	n := 0
	for _, b := range improved {
		if b {
			n++
		}
	}
	fmt.Printf("\n  %d of %d executed branches improve over plain profile\n",
		n, prof.Counts.Executed())

	// Static heuristics for contrast.
	fmt.Println("\n  static heuristics:")
	feats := c.Features
	for _, s := range []*predict.Static{
		predict.AlwaysTaken(c.NSites),
		predict.AlwaysNotTaken(c.NSites),
		predict.BackwardTaken(feats),
		predict.OpcodeStatic(feats),
		predict.BallLarus(feats),
	} {
		r := s.Score(prof.Counts)
		fmt.Printf("  %-28s  %8.2f\n", s.Strategy, r.Rate())
	}
}
