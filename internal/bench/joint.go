package bench

import (
	"repro/internal/core"
	"repro/internal/replicate"
	"repro/internal/runner"
)

// JointTable runs the §6 joint-machine experiment: the same strategy
// selection applied sequentially (per-branch machines, same-loop branches
// multiply copies) versus jointly (one minimised machine per loop), both
// measured by executing the transformed programs. Joint replication should
// match the sequential misprediction rate at equal or lower code size.
// One parallel job per workload.
func (s *Suite) JointTable() (*Table, error) {
	t := &Table{
		ID:    "joint",
		Title: "Sequential vs joint (§6) replication: measured rate and size factor",
	}
	const maxStates = 4
	type col struct{ seqRate, jointRate, seqSize, jointSize Cell }
	cols, err := runner.Map(s.eng, s.Data, func(_ int, d *WorkloadData) (col, error) {
		var c col
		sel, err := s.selectionFor(d, maxStates)
		if err != nil {
			return col{}, err
		}
		measure := func(joint bool) (rate, size Cell, err error) {
			prog, st, err := core.Apply(d.C.Prog, sel, replicate.Options{MaxSizeFactor: 4}, joint)
			if err != nil {
				return Cell{}, Cell{}, err
			}
			rate, err = s.measuredRate(prog, s.run(s.Cfg.Seed))
			return rate, Cell{Value: st.SizeFactor(), Valid: true}, err
		}
		if c.seqRate, c.seqSize, err = measure(false); err != nil {
			return col{}, err
		}
		if c.jointRate, c.jointSize, err = measure(true); err != nil {
			return col{}, err
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	t.Cols = s.colNames()
	seqRate := Row{Name: "sequential rate"}
	jointRate := Row{Name: "joint rate"}
	seqSize := Row{Name: "sequential size factor"}
	jointSize := Row{Name: "joint size factor"}
	for _, c := range cols {
		seqRate.Cells = append(seqRate.Cells, c.seqRate)
		jointRate.Cells = append(jointRate.Cells, c.jointRate)
		seqSize.Cells = append(seqSize.Cells, c.seqSize)
		jointSize.Cells = append(jointSize.Cells, c.jointSize)
	}
	t.Rows = append(t.Rows, seqRate, jointRate, seqSize, jointSize)
	return t, nil
}
