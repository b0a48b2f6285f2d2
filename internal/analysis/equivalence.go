package analysis

import (
	"repro/internal/ir"
)

// Equivalence is the replication-equivalence verifier: a translation
// validation pass that checks the transformed program against its
// pre-transform snapshot using the replicator's copy provenance. The
// provenance induces a candidate simulation relation — each block of the
// transformed program paired with the original block it copies — and the
// pass checks it is a lock-step simulation:
//
//   - shape: same functions (name/arity/frame/return type) and globals;
//   - every block has a recorded origin in the same function, and the entry
//     maps to the entry;
//   - each copy's instruction body is exactly its origin's (CloneBlocks
//     copies verbatim: no register or instruction rewriting is licensed);
//   - terminators match their origin's kind, operands, and branch ancestry
//     (Orig ID), and every successor edge lands on a copy of the correct
//     original successor;
//   - every conditional branch's static prediction equals what its recorded
//     authority dictates: the profile vector, the governing machine state's
//     majority direction, or the path state's (catch-all predictions account
//     for the counts of unrouted path states);
//   - machine state copies transition correctly: an edge leaving a governed
//     branch copy lands in the copy designated by the machine's transition
//     function, and every other edge stays inside its state copy.
//
// Together these imply the transformed program is a control-flow unfolding
// of the original — same behaviour on every input, not just test inputs —
// with exactly the predictions the chosen machines dictate.
type Equivalence struct{}

// Name implements Pass.
func (Equivalence) Name() string { return "equivalence" }

// Run implements Pass. It needs Context.Orig and Context.Prov; without them
// it reports nothing.
func (Equivalence) Run(c *Context) {
	orig, prov := c.Orig, c.Prov
	if orig == nil || prov == nil {
		return
	}
	repl := c.Prog
	if len(repl.Funcs) != len(orig.Funcs) {
		c.Errorf(Pos{}, "function count changed: %d, originally %d", len(repl.Funcs), len(orig.Funcs))
		return
	}
	checkGlobals(c, orig)
	for fi, f := range repl.Funcs {
		of := orig.Funcs[fi]
		checkFuncShape(c, f, of)
		checkBlocks(c, fi, f, of)
	}
	checkTransitions(c)
}

func checkGlobals(c *Context, orig *ir.Program) {
	repl := c.Prog
	if len(repl.Globals) != len(orig.Globals) {
		c.Errorf(Pos{}, "global count changed: %d, originally %d", len(repl.Globals), len(orig.Globals))
		return
	}
	for i, g := range repl.Globals {
		og := orig.Globals[i]
		if g.Name != og.Name || g.Type != og.Type || g.Len != og.Len || g.Array != og.Array {
			c.Errorf(Pos{}, "global %d changed: %s %v len=%d array=%v, originally %s %v len=%d array=%v",
				i, g.Name, g.Type, g.Len, g.Array, og.Name, og.Type, og.Len, og.Array)
			continue
		}
		if len(g.Init) != len(og.Init) {
			c.Errorf(Pos{}, "global %s initialiser length changed", g.Name)
			continue
		}
		for j := range g.Init {
			if g.Init[j] != og.Init[j] {
				c.Errorf(Pos{}, "global %s initialiser element %d changed", g.Name, j)
				break
			}
		}
	}
}

func checkFuncShape(c *Context, f, of *ir.Func) {
	pos := Pos{Func: f.Name, Block: -1, Instr: -1}
	if f.Name != of.Name {
		c.Errorf(pos, "function renamed from %s", of.Name)
	}
	if f.NParams != of.NParams || f.NRegs != of.NRegs || f.RetType != of.RetType {
		c.Errorf(pos, "signature changed: %d params / %d regs / %v, originally %d / %d / %v",
			f.NParams, f.NRegs, f.RetType, of.NParams, of.NRegs, of.RetType)
	}
}

// originBlock resolves b's recorded origin to a block of the snapshot
// function of index fi, reporting an Error and nil when the provenance is
// missing or inconsistent.
func originBlock(c *Context, fi int, f *ir.Func, b *ir.Block, of *ir.Func) *ir.Block {
	id, ok := c.Prov.Origin(b)
	if !ok {
		c.Errorf(BlockPos(f, b), "block %s has no recorded origin", b)
		return nil
	}
	if id.Func != fi {
		c.Errorf(BlockPos(f, b), "block %s originates in function %d, found in function %d", b, id.Func, fi)
		return nil
	}
	if id.Block < 0 || id.Block >= len(of.Blocks) {
		c.Errorf(BlockPos(f, b), "block %s origin index %d out of range (%d original blocks)", b, id.Block, len(of.Blocks))
		return nil
	}
	return of.Blocks[id.Block]
}

func checkBlocks(c *Context, fi int, f, of *ir.Func) {
	for _, b := range f.Blocks {
		ob := originBlock(c, fi, f, b, of)
		if ob == nil {
			continue
		}
		if b == f.Entry && ob != of.Entry {
			c.Errorf(BlockPos(f, b), "entry block is a copy of %s, not of the original entry %s", ob, of.Entry)
		}
		checkBody(c, f, b, ob)
		checkTerm(c, fi, f, b, ob, of)
		if b.Term.Op == ir.TermBr && !b.Term.SwTest {
			checkPrediction(c, f, b, ob)
		}
	}
}

// checkBody requires the copy's instructions to equal its origin's verbatim:
// the replicator only duplicates and rewires, never rewrites code.
func checkBody(c *Context, f *ir.Func, b, ob *ir.Block) {
	if len(b.Instrs) != len(ob.Instrs) {
		c.Errorf(BlockPos(f, b), "copy of %s has %d instructions, original has %d", ob, len(b.Instrs), len(ob.Instrs))
		return
	}
	for i := range b.Instrs {
		in, oin := &b.Instrs[i], &ob.Instrs[i]
		if in.Op != oin.Op || in.Dst != oin.Dst || in.A != oin.A || in.B != oin.B || in.Imm != oin.Imm {
			c.Errorf(Pos{Func: f.Name, Block: b.ID, Instr: i}, "instruction differs from origin %s: %v, originally %v", ob, *in, *oin)
			return
		}
		if len(in.Args) != len(oin.Args) {
			c.Errorf(Pos{Func: f.Name, Block: b.ID, Instr: i}, "call arity differs from origin %s", ob)
			return
		}
		for j := range in.Args {
			if in.Args[j] != oin.Args[j] {
				c.Errorf(Pos{Func: f.Name, Block: b.ID, Instr: i}, "call argument %d differs from origin %s", j, ob)
				return
			}
		}
	}
}

// checkTerm checks the terminator kind and operands against the origin and
// the lock-step successor condition: each successor edge must land on a copy
// of the corresponding original successor.
func checkTerm(c *Context, fi int, f *ir.Func, b, ob *ir.Block, of *ir.Func) {
	t, ot := &b.Term, &ob.Term
	if t.Op != ot.Op {
		c.Errorf(BlockPos(f, b), "terminator %v differs from origin %s's %v", t.Op, ob, ot.Op)
		return
	}
	if t.Cond != ot.Cond || t.A != ot.A || t.HasVal != ot.HasVal {
		c.Errorf(BlockPos(f, b), "terminator operands differ from origin %s", ob)
	}
	if (t.Op == ir.TermBr || t.Op == ir.TermSwitch) && t.Orig != ot.Orig {
		c.Errorf(BlockPos(f, b), "branch ancestry %d differs from origin %s's %d", t.Orig, ob, ot.Orig)
	}
	checkSucc := func(succ *ir.Block, osucc *ir.Block, slot string) {
		id, ok := c.Prov.Origin(succ)
		if !ok {
			c.Errorf(BlockPos(f, b), "%s successor %s has no recorded origin", slot, succ)
			return
		}
		if id.Func != fi || id.Block != osucc.ID {
			c.Errorf(BlockPos(f, b), "%s successor %s is a copy of b%d, want a copy of %s", slot, succ, id.Block, osucc)
		}
	}
	switch t.Op {
	case ir.TermJmp:
		checkSucc(t.Then, ot.Then, "jump")
	case ir.TermBr:
		checkSucc(t.Then, ot.Then, "taken")
		checkSucc(t.Else, ot.Else, "fall-through")
	case ir.TermSwitch:
		if len(t.Targets) != len(ot.Targets) {
			c.Errorf(BlockPos(f, b), "switch has %d case targets, origin %s has %d", len(t.Targets), ob, len(ot.Targets))
			return
		}
		for i := range t.Targets {
			checkSucc(t.Targets[i], ot.Targets[i], "case")
		}
		checkSucc(t.Else, ot.Else, "default")
	}
}

// checkPrediction compares the branch copy's static prediction with what its
// recorded authority dictates.
func checkPrediction(c *Context, f *ir.Func, b, ob *ir.Block) {
	a := c.Prov.authOf(b)
	var want ir.Prediction
	switch a.kind {
	case authProfile:
		// The profile vector (replicate.Annotate), falling back to the
		// origin's own annotation for sites outside the vector.
		want = ob.Term.Pred
		if o := int(b.Term.Orig); c.Preds != nil && o >= 0 && o < len(c.Preds) {
			want = c.Preds[o]
		}
	case authMachine:
		want = predOf(a.app.M.Predict(a.state, a.bi))
	case authPath:
		if a.state < 0 {
			want = predOf(a.papp.expectedCatch())
		} else if a.state < len(a.papp.m.PredTaken) {
			want = predOf(a.papp.m.PredTaken[a.state])
		} else {
			c.Errorf(BlockPos(f, b), "path state %d out of range (%d states)", a.state, len(a.papp.m.PredTaken))
			return
		}
	}
	if b.Term.Pred != want {
		c.Errorf(BlockPos(f, b), "static prediction %v does not match its authority's %v", b.Term.Pred, want)
	}
}

// checkTransitions checks every machine application's state-copy wiring:
// an edge out of the governed branch copy in state s must land in the copy
// designated by the transition function, and every other edge between state
// copies must stay inside its copy. Edges to blocks outside the application
// (loop exits, later clones by other machines) are unconstrained here — the
// successor-origin check above already pins their destination.
//
// A branch governed by a *different* machine application is exempt from the
// stay rule: stacked replication re-replicates branch copies (a later pass
// treats an earlier pass's clones as fresh sites), and the newest
// application's SetBranch takes over both the prediction and the successor
// wiring. The superseded applications' state maps still cover the block, but
// its edges now follow the governing machine's transition function — which
// the governed case below checks — so cross-state edges under the old maps
// are expected, not errors.
func checkTransitions(c *Context) {
	for _, f := range c.Prog.Funcs {
		for _, b := range f.Blocks {
			a := c.Prov.authOf(b)
			for _, app := range c.Prov.Apps() {
				s, ok := app.StateOf(b)
				if !ok {
					continue
				}
				governed := a.kind == authMachine && a.app == app
				if a.kind == authMachine && !governed {
					continue
				}
				check := func(t *ir.Block, taken bool, slot string) {
					st, ok := app.StateOf(t)
					if !ok {
						return
					}
					if governed {
						want, defined := app.M.Step(s, a.bi, taken)
						if !defined {
							c.Errorf(BlockPos(f, b), "machine transition from state %d on %s is undefined", s, slot)
							return
						}
						if st != want {
							c.Errorf(BlockPos(f, b), "%s edge lands in state copy %d, machine transition requires %d", slot, st, want)
						}
					} else if st != s {
						c.Errorf(BlockPos(f, b), "%s edge leaves state copy %d for copy %d without a machine transition", slot, s, st)
					}
				}
				switch b.Term.Op {
				case ir.TermJmp:
					check(b.Term.Then, true, "jump")
				case ir.TermBr:
					check(b.Term.Then, true, "taken")
					check(b.Term.Else, false, "fall-through")
				case ir.TermSwitch:
					// Machines govern two-way branches only, so a switch
					// inside a state copy is never the governed block and
					// every edge must obey the stay rule.
					for _, tb := range b.Term.Targets {
						check(tb, true, "case")
					}
					check(b.Term.Else, false, "default")
				}
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
