package bench

import (
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/runner"
	"repro/internal/trace"
)

// LayoutTable runs the code-positioning extension experiment: the dynamic
// taken-transfer rate (the [PH90] objective; lower is better for the
// instruction cache and fetch unit) for the original program and for the
// replicated one, each under the naive block order and under
// Pettis–Hansen positioning. It quantifies §5's remark that a cost
// function must weigh replication's cache impact: replication adds code,
// but its biased per-state branches lay out into longer fall-through runs.
// One parallel job per workload; the strategy selection is shared with the
// other measured experiments through the artifact cache.
func (s *Suite) LayoutTable() (*Table, error) {
	t := &Table{
		ID:    "layout",
		Title: "Dynamic taken-transfer rate (%) under code positioning [PH90]",
	}
	type col struct{ origNaive, origPH, replNaive, replPH Cell }
	cols, err := runner.Map(s.eng, s.Data, func(_ int, d *WorkloadData) (col, error) {
		var c col
		var err error
		if d.Art != nil {
			// The original program's block counts and branch counts are
			// already in the recorded artifact and the replayed profile;
			// both layouts evaluate straight off them.
			nv := layout.EvaluateProgram(d.C.Prog, d.Art.BlockCounts, d.Prof.Counts, false)
			pv := layout.EvaluateProgram(d.C.Prog, d.Art.BlockCounts, d.Prof.Counts, true)
			c.origNaive = Cell{Value: nv.TakenRate(), Valid: true}
			c.origPH = Cell{Value: pv.TakenRate(), Valid: true}
		} else {
			s.countLiveRun()
			c.origNaive, c.origPH, err = layoutRates(d.C.Prog, s.run(s.Cfg.Seed))
			if err != nil {
				return col{}, err
			}
		}

		r, err := s.replicatedFor(d, 5)
		if err != nil {
			return col{}, err
		}
		c.replNaive, c.replPH = layoutCells(r.Prog, r.BlockCounts, r.Counts)
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	t.Cols = s.colNames()
	origNaive := Row{Name: "original, naive layout"}
	origPH := Row{Name: "original, PH layout"}
	replNaive := Row{Name: "replicated, naive layout"}
	replPH := Row{Name: "replicated, PH layout"}
	for _, c := range cols {
		origNaive.Cells = append(origNaive.Cells, c.origNaive)
		origPH.Cells = append(origPH.Cells, c.origPH)
		replNaive.Cells = append(replNaive.Cells, c.replNaive)
		replPH.Cells = append(replPH.Cells, c.replPH)
	}
	t.Rows = append(t.Rows, origNaive, origPH, replNaive, replPH)
	return t, nil
}

// layoutRates profiles one program (block counts + branch counts) and
// evaluates both layouts.
func layoutRates(prog *ir.Program, rc core.RunConfig) (naive, ph Cell, err error) {
	counts, m, err := countingRun(prog, rc)
	if err != nil {
		return Cell{}, Cell{}, err
	}
	naive, ph = layoutCells(prog, m.BlockCounts(), counts)
	return naive, ph, nil
}

// layoutCells evaluates the naive and the Pettis–Hansen layout of a
// program from its block and branch counts.
func layoutCells(prog *ir.Program, bc [][]uint64, counts *trace.Counts) (naive, ph Cell) {
	nv := layout.EvaluateProgram(prog, bc, counts, false)
	pv := layout.EvaluateProgram(prog, bc, counts, true)
	return Cell{Value: nv.TakenRate(), Valid: true}, Cell{Value: pv.TakenRate(), Valid: true}
}

// countingRun executes a program with per-site branch counts and per-block
// execution counts enabled — the two inputs of the layout and scope
// experiments — and returns the counts and the machine, whose block counts
// and static-prediction counters the caller reads. It renumbers the
// program's sites first.
func countingRun(prog *ir.Program, rc core.RunConfig) (*trace.Counts, *core.Execution, error) {
	counts := trace.NewCounts(prog.NumberBranches(false))
	m, err := core.Exec(prog, rc, func(m *interp.Machine) {
		m.EnableBlockCounts()
		m.Hook = counts.Branch
	})
	if err != nil {
		return nil, nil, err
	}
	return counts, m, nil
}
