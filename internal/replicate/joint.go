package replicate

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/statemachine"
)

// ApplyJoint is the §6 variant of Apply: branches that share an innermost
// loop are replicated together with a single minimised joint machine
// (statemachine.BuildJoint) instead of sequentially — sequential
// application multiplies loop copies (n1·n2·…), the joint machine needs
// only its minimised product's states. Correlated (path) machines and
// branches alone in their loop are handled exactly as Apply does.
func ApplyJoint(prog *ir.Program, choices []statemachine.Choice, profilePreds []ir.Prediction, opts Options) (*Stats, error) {
	d, want := begin(prog, choices, profilePreds, opts)
	st := d.st
	// Statically-decided sites never enter the joint groups — same
	// "budget: static" rule as the sequential driver.
	choiceBySite := map[int32]*statemachine.Choice{}
	for _, c := range want {
		choiceBySite[c.Site] = c
	}

	// Fixpoint over (loop, machine branches) groups: each pass re-analyses
	// the current CFG, picks one unprocessed group per function, and
	// replicates it jointly. Branch copies created by one pass are
	// themselves groups in later passes (nested loops replicate
	// multiplicatively, as in sequential application, but same-loop
	// branches share one minimised machine).
	processed := map[*ir.Block]bool{}
	for pass := 0; pass < 1000; pass++ {
		progress := false
		for _, f := range prog.Funcs {
			g := cfg.Build(f)
			lf := cfg.FindLoops(g)
			groups := map[*cfg.Loop][]*ir.Block{}
			var loopOrder []*cfg.Loop
			for _, b := range f.Blocks {
				if b.Term.Op != ir.TermBr || b.Term.SwTest || processed[b] {
					continue
				}
				c := choiceBySite[b.Term.Orig]
				if c == nil || (c.Kind != statemachine.KindLoop && c.Kind != statemachine.KindExit) {
					continue
				}
				l := lf.InnermostLoop(b)
				if l == nil {
					processed[b] = true
					continue
				}
				if _, seen := groups[l]; !seen {
					loopOrder = append(loopOrder, l)
				}
				groups[l] = append(groups[l], b)
			}
			if len(loopOrder) == 0 {
				continue
			}
			// One group per pass per function keeps every later group's
			// analysis fresh.
			l := loopOrder[0]
			blocks := groups[l]
			// Cap the product: joint-replicate the highest-gain branches
			// whose product stays tractable; the rest stay unprocessed and
			// replicate over the copies in later passes (sequentially,
			// exactly as Apply would).
			sort.SliceStable(blocks, func(a, b int) bool {
				return choiceBySite[blocks[a].Term.Orig].Gain() > choiceBySite[blocks[b].Term.Orig].Gain()
			})
			const maxProduct = 4096
			prod := 1
			sel := blocks[:0]
			for _, b := range blocks {
				n := choiceBySite[b.Term.Orig].NumStates()
				if prod*n <= maxProduct {
					prod *= n
					sel = append(sel, b)
				}
			}
			blocks = sel
			for _, b := range blocks {
				processed[b] = true
			}
			progress = true
			if d.over(0) {
				st.Skipped += len(blocks)
				continue
			}
			var cs []*statemachine.Choice
			for _, b := range blocks {
				cs = append(cs, choiceBySite[b.Term.Orig])
			}
			jm, err := statemachine.BuildJoint(cs)
			if err != nil {
				return st, err
			}
			// If the joint machine blows the size budget, drop the
			// lowest-gain branches (the list is gain-sorted) until it
			// fits, rather than skipping the whole loop.
			for len(cs) > 0 && d.over(loopGrowth(l, jm.States)) {
				st.Skipped++
				cs = cs[:len(cs)-1]
				blocks = blocks[:len(blocks)-1]
				if len(cs) == 0 {
					break
				}
				jm, err = statemachine.BuildJoint(cs)
				if err != nil {
					return st, err
				}
			}
			if len(cs) == 0 {
				continue
			}
			clones, err := replicateLoop(f, l, blocks, jm, st.Prov, ".j")
			if err != nil {
				st.Skipped += len(blocks)
				continue
			}
			for _, cb := range clones {
				processed[cb] = true
			}
			st.LoopApplied += len(blocks)
		}
		if !progress {
			break
		}
	}

	// Correlated machines, over every choice: unlike ApplyOpts, a path
	// machine at a statically decided site is still applied, and the walk
	// ranges over f.Blocks while replicatePath compacts it, so a fresh copy
	// moved into the walked window is path-replicated again.
	for i := range choices {
		c := &choices[i]
		if c.Kind != statemachine.KindPath {
			continue
		}
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				if b.Term.Op == ir.TermBr && !b.Term.SwTest && b.Term.Orig == c.Site {
					d.applyPath(site{f, b}, c)
				}
			}
		}
	}
	return d.finish(choices, profilePreds, opts)
}
