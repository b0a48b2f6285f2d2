// Package replicate implements the paper's code replication transforms
// (sections 4–5): loop replication, which materialises a branch prediction
// state machine as one copy of the enclosing natural loop per state
// (Figure 1), and tail duplication for correlated branches (after Mueller &
// Whalley), which gives each predecessor path its own copy of the branch
// block. Every replicated branch copy carries a static prediction — the
// majority direction of its machine state — so the interpreter can measure
// the transformed program's real misprediction rate.
package replicate

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/statemachine"
)

// ErrVerify wraps the first verifier Error when Options.Verify is set and
// the transformed program fails the equivalence check. Callers test with
// errors.Is; the full diagnostic list is in Stats.Diags.
var ErrVerify = errors.New("replicate: verification failed")

// Stats reports what one Apply call did.
type Stats struct {
	// LoopApplied / ExitApplied / PathApplied count machine applications
	// (one per branch copy present when the machine was applied).
	LoopApplied int
	ExitApplied int
	PathApplied int
	// PathEdgesRouted counts predecessor edges routed to a specific path
	// state; PathEdgesCatchAll counts edges left on the catch-all copy.
	PathEdgesRouted   int
	PathEdgesCatchAll int
	// Skipped counts machines that could not be applied (e.g. the loop
	// disappeared after an earlier transform).
	Skipped int
	// StaticSkipped counts machines dropped because Options.StaticSkip
	// marked their site as statically decided — replication budget is
	// never spent on a branch whose direction is already proven.
	StaticSkipped int
	// InstrsBefore/After measure code size (the paper's size metric).
	InstrsBefore, InstrsAfter int
	// Verified reports that Options.Verify was set and the equivalence
	// verifier found no errors; Diags holds its full output (including
	// warnings). Orig and Prov are the pre-transform snapshot and the copy
	// provenance the verification ran against, for callers that want to
	// re-run or extend the analysis.
	Verified bool
	Diags    []analysis.Diagnostic
	Orig     *ir.Program
	Prov     *analysis.Provenance
}

// SizeFactor is the code growth ratio.
func (s *Stats) SizeFactor() float64 {
	if s.InstrsBefore == 0 {
		return 1
	}
	return float64(s.InstrsAfter) / float64(s.InstrsBefore)
}

// Annotate sets every conditional branch's static prediction from the
// per-original-branch vector (indexed by Orig ID; ir.PredNone entries are
// allowed and left unpredicted). Replicated copies inherit their original's
// prediction until a machine overrides them. SwTest branches are owned by
// the indirect clustering family — their prediction encodes the profiled
// hot outcome and must survive branch-family annotation.
func Annotate(prog *ir.Program, preds []ir.Prediction) {
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op != ir.TermBr || b.Term.SwTest {
				continue
			}
			if int(b.Term.Orig) < len(preds) {
				b.Term.Pred = preds[b.Term.Orig]
			}
		}
	}
}

func predOf(taken bool) ir.Prediction {
	if taken {
		return ir.PredTaken
	}
	return ir.PredNotTaken
}

// Options bounds an Apply run.
type Options struct {
	// MaxSizeFactor stops applying further machines once the program has
	// grown past this factor of its original size (0 = unlimited). Two
	// replicated branches in one loop multiply its copies — §6 notes that
	// some programs would grow more than a thousandfold without a cost
	// bound, and §5's optimizer applies replication only where a cost
	// function allows it.
	MaxSizeFactor float64
	// StaticSkip, indexed by original branch site, marks sites the static
	// analysis decided (always-taken, dead, or unreachable branches).
	// Machines targeting a marked site are dropped before the budget is
	// allocated — the "budget: static" selection mode.
	StaticSkip []bool
	// Verify makes Apply record copy provenance while transforming and run
	// the analysis.Verify equivalence suite on the result: any verifier
	// Error fails the call with ErrVerify. The snapshot, provenance, and
	// diagnostics are returned in Stats.
	Verify bool
}

// Apply replicates code for every non-profile choice, after annotating all
// branches with the profile predictions. The program is modified in place
// (clone it first with ir.CloneProgram to keep the original); on return the
// branch sites are renumbered (Orig IDs preserved) and the program is
// revalidated.
//
// Correlated machines are applied through tail duplication with
// length-1 paths (the immediately preceding branch); longer path states are
// served by the catch-all copy — the measured rate is then an upper bound
// of the predicted one. Loop and exit machines are applied in full.
func Apply(prog *ir.Program, choices []statemachine.Choice, profilePreds []ir.Prediction) (*Stats, error) {
	return ApplyOpts(prog, choices, profilePreds, Options{})
}

// ApplyOpts is Apply with a size budget: machines are applied in order of
// decreasing profile improvement, and applications stop once the budget is
// exhausted (remaining machines are counted as Skipped).
func ApplyOpts(prog *ir.Program, choices []statemachine.Choice, profilePreds []ir.Prediction, opts Options) (*Stats, error) {
	d, want := begin(prog, choices, profilePreds, opts)
	// Apply in decreasing gain density (correct predictions gained per
	// instruction added) — the ordering rule of the paper's §5 figures.
	// Costs are estimated on the untransformed program.
	type cand struct {
		c       *statemachine.Choice
		density float64
	}
	forests := map[*ir.Func]*cfg.LoopForest{}
	cands := make([]cand, 0, len(want))
	for _, c := range want {
		cost := 1.0
		if c.Kind != statemachine.KindPath {
			for _, s := range d.sites(c.Site) {
				lf, ok := forests[s.f]
				if !ok {
					lf = cfg.FindLoops(cfg.Build(s.f))
					forests[s.f] = lf
				}
				if est := loopGrowth(lf.InnermostLoop(s.b), c.NumStates()); est > 0 {
					cost += float64(est)
				}
			}
		}
		cands = append(cands, cand{c: c, density: c.Gain() / cost})
	}
	sort.SliceStable(cands, func(a, b int) bool {
		return cands[a].density > cands[b].density
	})
	for _, cd := range cands {
		c := cd.c
		if d.over(0) {
			d.st.Skipped++
			continue
		}
		for _, s := range d.sites(c.Site) {
			if d.over(0) {
				d.st.Skipped++
				continue
			}
			if c.Kind == statemachine.KindPath {
				d.applyPath(s, c)
				continue
			}
			m := c.Machine()
			if m == nil {
				continue
			}
			// The loop is found once, on the current CFG, for both the
			// growth estimate and the kernel.
			l := cfg.FindLoops(cfg.Build(s.f)).InnermostLoop(s.b)
			if l == nil || d.over(loopGrowth(l, m.NumStates())) {
				d.st.Skipped++
				continue
			}
			if _, err := replicateLoop(s.f, l, []*ir.Block{s.b}, m, d.st.Prov, ".q"); err != nil {
				d.st.Skipped++
			} else if c.Kind == statemachine.KindLoop {
				d.st.LoopApplied++
			} else {
				d.st.ExitApplied++
			}
		}
	}
	return d.finish(choices, profilePreds, opts)
}

// driver is what ApplyOpts and ApplyJoint share: the program under
// transformation, its Stats, the size budget (0 = unlimited) and the call
// graph facts path replication needs. The two drivers differ only in the
// order they apply machines.
type driver struct {
	prog    *ir.Program
	st      *Stats
	budget  int
	branchy []bool
}

// begin is both drivers' prologue. It opens the Stats (with the verifier's
// snapshot and provenance when opts.Verify is set), annotates every branch
// with the profile predictions, sizes the budget, and returns the choices
// that want a machine: not plain profile, and not at a site
// opts.StaticSkip marks (those count as StaticSkipped).
func begin(prog *ir.Program, choices []statemachine.Choice, profilePreds []ir.Prediction, opts Options) (*driver, []*statemachine.Choice) {
	d := &driver{prog: prog, st: &Stats{InstrsBefore: prog.NumInstrs()}}
	if opts.Verify {
		d.st.Orig = ir.CloneProgram(prog)
		d.st.Prov = analysis.NewProvenance(prog)
	}
	Annotate(prog, profilePreds)
	d.branchy = branchyFuncs(prog)
	if opts.MaxSizeFactor > 0 {
		d.budget = int(float64(d.st.InstrsBefore) * opts.MaxSizeFactor)
	}
	var want []*statemachine.Choice
	for i := range choices {
		c := &choices[i]
		// Statically-decided sites are claimed by the analysis before the
		// profile-static fallback: however the selection classified them,
		// no replication budget is spent there.
		if int(c.Site) < len(opts.StaticSkip) && opts.StaticSkip[c.Site] {
			d.st.StaticSkipped++
			continue
		}
		if c.Kind != statemachine.KindProfile {
			want = append(want, c)
		}
	}
	return d, want
}

// over reports whether growing the program by grow instructions would
// leave it beyond the size budget.
func (d *driver) over(grow int) bool {
	return d.budget > 0 && d.prog.NumInstrs()+grow > d.budget
}

// site is one current branch block descending from an original site.
type site struct {
	f *ir.Func
	b *ir.Block
}

// sites locates every current branch block descending from original
// branch site orig.
func (d *driver) sites(orig int32) []site {
	var out []site
	for _, f := range d.prog.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op == ir.TermBr && !b.Term.SwTest && b.Term.Orig == orig {
				out = append(out, site{f, b})
			}
		}
	}
	return out
}

// applyPath applies path machine choice c to branch block s by tail
// duplication.
func (d *driver) applyPath(s site, c *statemachine.Choice) {
	routed, catch := replicatePath(d.prog, s.f, s.b, c.Path, d.branchy, d.st.Prov)
	d.st.PathEdgesRouted += routed
	d.st.PathEdgesCatchAll += catch
	d.st.PathApplied++
}

// finish is both drivers' epilogue: renumber the branch sites (Orig IDs
// kept), revalidate, measure the result, and run the equivalence suite
// when opts.Verify is set, recording its diagnostics.
func (d *driver) finish(choices []statemachine.Choice, profilePreds []ir.Prediction, opts Options) (*Stats, error) {
	st := d.st
	d.prog.NumberBranches(false)
	if err := d.prog.Validate(); err != nil {
		return st, fmt.Errorf("replicate: transformed program invalid: %w", err)
	}
	st.InstrsAfter = d.prog.NumInstrs()
	if !opts.Verify {
		return st, nil
	}
	st.Diags = analysis.Verify(st.Orig, d.prog, st.Prov, choices, profilePreds)
	if e := analysis.FirstError(st.Diags); e != nil {
		return st, fmt.Errorf("%w: %s", ErrVerify, e)
	}
	st.Verified = true
	return st, nil
}

// loopGrowth bounds the instruction growth of replicating loop l into n
// state copies (pruning can only shrink the real figure); 0 outside a
// loop.
func loopGrowth(l *cfg.Loop, n int) int {
	if l == nil {
		return 0
	}
	return (n - 1) * l.NumInstrs()
}

// replicateLoop materialises machine m in loop l by copying l once per
// machine state (Figure 1). branches[i] is the block of m's branch i (one
// block for a loop or exit machine, a loop's branch group for a joint
// machine). Every edge stays within its copy except the governed
// branches', whose successors inside l jump into the copies m's transition
// function names. Entries into the loop go to the initial state's copy;
// exits leave unchanged; unreachable copies are pruned. Copies are named
// by suffix and the state. It returns the governed branch copies.
func replicateLoop(f *ir.Func, l *cfg.Loop, branches []*ir.Block, m statemachine.Machine, prov *analysis.Provenance, suffix string) ([]*ir.Block, error) {
	n := m.NumStates()
	if n < 2 {
		// One state: just annotate the branches.
		app := prov.NewMachineApp(m)
		for bi, b := range branches {
			b.Term.Pred = predOf(m.Predict(0, bi))
			app.SetBranch(b, 0, bi)
		}
		return nil, nil
	}
	if l.Contains(f.Entry) {
		return nil, fmt.Errorf("replicate: loop of %s contains the function entry", branches[0])
	}
	if err := statemachine.CheckMachine(m, len(branches)); err != nil {
		return nil, err
	}
	preClone := make([]*ir.Block, len(f.Blocks))
	copy(preClone, f.Blocks)

	app := prov.NewMachineApp(m)
	copies := make([]map[*ir.Block]*ir.Block, n)
	for s := 0; s < n; s++ {
		copies[s] = ir.CloneBlocks(f, l.Blocks, fmt.Sprintf("%s%d", suffix, s))
		prov.RecordClones(copies[s])
		for _, cp := range copies[s] {
			app.SetState(cp, s)
		}
	}
	// Wire the governed branches: state transitions happen only here.
	for bi, b := range branches {
		origThen, origElse := b.Term.Then, b.Term.Else
		for s := 0; s < n; s++ {
			bc := copies[s][b]
			bc.Term.Pred = predOf(m.Predict(s, bi))
			app.SetBranch(bc, s, bi)
			if l.Contains(origThen) {
				t, _ := m.Step(s, bi, true)
				bc.Term.Then = copies[t][origThen]
			}
			if l.Contains(origElse) {
				t, _ := m.Step(s, bi, false)
				bc.Term.Else = copies[t][origElse]
			}
		}
	}
	// Route loop entries to the initial state's copy of the header.
	initHeader := copies[m.InitState()][l.Header]
	for _, u := range preClone {
		if l.Contains(u) {
			continue
		}
		if u.Term.Then == l.Header {
			u.Term.Then = initHeader
		}
		if (u.Term.Op == ir.TermBr || u.Term.Op == ir.TermSwitch) && u.Term.Else == l.Header {
			u.Term.Else = initHeader
		}
		for ti, tb := range u.Term.Targets {
			if tb == l.Header {
				u.Term.Targets[ti] = initHeader
			}
		}
	}
	ir.RemoveUnreachable(f)
	var clones []*ir.Block
	for s := 0; s < n; s++ {
		for _, b := range branches {
			clones = append(clones, copies[s][b])
		}
	}
	return clones, nil
}

// branchyFuncs computes which functions may (transitively) execute a
// conditional branch when called; a call to such a function between a
// predecessor branch and a correlated branch invalidates static path
// knowledge.
func branchyFuncs(prog *ir.Program) []bool {
	n := len(prog.Funcs)
	direct := make([]bool, n)
	callees := make([][]int, n)
	for i, f := range prog.Funcs {
		seen := map[int]bool{}
		for _, b := range f.Blocks {
			if b.Term.Op == ir.TermBr {
				direct[i] = true
			}
			for j := range b.Instrs {
				if b.Instrs[j].Op == ir.OpCall {
					c := int(b.Instrs[j].Imm)
					if !seen[c] {
						seen[c] = true
						callees[i] = append(callees[i], c)
					}
				}
			}
		}
	}
	// Propagate to fixpoint (call graphs are tiny).
	changed := true
	for changed {
		changed = false
		for i := range direct {
			if direct[i] {
				continue
			}
			for _, c := range callees[i] {
				if direct[c] {
					direct[i] = true
					changed = true
					break
				}
			}
		}
	}
	return direct
}

// blockCallsBranchy reports whether any call in the block can execute a
// branch.
func blockCallsBranchy(b *ir.Block, branchy []bool) bool {
	for i := range b.Instrs {
		if b.Instrs[i].Op == ir.OpCall && branchy[b.Instrs[i].Imm] {
			return true
		}
	}
	return false
}
