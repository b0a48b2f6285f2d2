package bench

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/replicate"
	"repro/internal/runner"
	"repro/internal/statemachine"
	"repro/internal/trace"
)

// CrossDataset runs the paper's §6 / [FF92] sensitivity experiment: train
// the profile and the replication machines on one dataset, then measure on
// a different one. The replicated rows are *measured* — the transformed
// program runs in the interpreter with its static annotations — so they
// also validate the whole pipeline end to end. One parallel job per
// workload; the alternate-dataset counts and the strategy selection come
// from the artifact cache.
func (s *Suite) CrossDataset() (*Table, error) {
	t := &Table{
		ID:    "crossdataset",
		Title: "Dataset sensitivity: trained on dataset A, measured on A and on B (%)",
	}
	const machineStates = 5
	type col struct{ profSelf, profCross, replSelf, replCross Cell }
	cols, err := runner.Map(s.eng, s.Data, func(_ int, d *WorkloadData) (col, error) {
		var c col
		// Profile self: trained and scored on dataset A.
		pr := predict.ProfileResult(d.Prof.Counts)
		c.profSelf = rateCell(pr.Misses, pr.Total)

		// Profile cross: A-trained majority vector scored on dataset B.
		static := predict.ProfileStatic(d.Prof.Counts)
		crossCounts, err := s.countsFor(d, s.Cfg.CrossSeed)
		if err != nil {
			return col{}, err
		}
		cr := static.Score(crossCounts)
		c.profCross = rateCell(cr.Misses, cr.Total)

		// Replication trained on A (realizable machines only), measured on
		// both datasets by running the transformed program. The dataset-A
		// run is the one shared with the other measured experiments.
		r, err := s.replicatedFor(d, machineStates)
		if err != nil {
			return col{}, err
		}
		c.replSelf = r.rate()
		c.replCross, err = s.measuredRate(r.Prog, RunConfig{
			Budget: s.Cfg.Budget, Seed: s.Cfg.CrossSeed, Scale: scaleFor(s.Cfg),
		})
		if err != nil {
			return col{}, err
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	t.Cols = s.colNames()
	profSelf := Row{Name: "profile self"}
	profCross := Row{Name: "profile cross"}
	replSelf := Row{Name: "replicated self (measured)"}
	replCross := Row{Name: "replicated cross (measured)"}
	for _, c := range cols {
		profSelf.Cells = append(profSelf.Cells, c.profSelf)
		profCross.Cells = append(profCross.Cells, c.profCross)
		replSelf.Cells = append(replSelf.Cells, c.replSelf)
		replCross.Cells = append(replCross.Cells, c.replCross)
	}
	t.Rows = append(t.Rows, profSelf, profCross, replSelf, replCross)
	return t, nil
}

// measuredRate runs a statically annotated program and returns its real
// misprediction rate. Transformed clones have no recorded trace — their
// branch streams differ from the original's — so this is always a live run,
// counted as such in the engine stats.
func (s *Suite) measuredRate(prog *ir.Program, cfg RunConfig) (Cell, error) {
	s.countLiveRun()
	m, err := runProgram(prog, cfg, nil)
	if err != nil {
		return Cell{}, err
	}
	return rateCell(m.Mispredicted, m.Predicted), nil
}

// replicated is one workload's program replicated with realizable machines
// of up to some number of states, and the transformed program's one live
// run on dataset A. The measured, cross-dataset, layout and scope
// experiments all read it from the artifact cache, so the transform and
// the run happen once per suite. It is shared between jobs: nothing may
// mutate it.
type replicated struct {
	// Prog is the transformed program, its sites renumbered.
	Prog  *ir.Program
	Stats *replicate.Stats
	// Predicted and Mispredicted are the interpreter's static-prediction
	// counters of the dataset-A run; Counts and BlockCounts its per-site
	// branch counts and per-block execution counts.
	Predicted, Mispredicted uint64
	Counts                  *trace.Counts
	BlockCounts             [][]uint64
}

// rate is the measured misprediction rate of the dataset-A run.
func (r *replicated) rate() Cell { return rateCell(r.Mispredicted, r.Predicted) }

// replicatedFor transforms workload d with the realizable strategy
// selection of up to maxStates states (size factor capped at 3) and runs
// the result once on dataset A, memoised in the artifact cache.
func (s *Suite) replicatedFor(d *WorkloadData, maxStates int) (*replicated, error) {
	key := fmt.Sprintf("%sreplicated/%s/n%d", s.prefix, d.C.Workload.Name, maxStates)
	return runner.Cached(s.eng.Cache(), key, func() (*replicated, error) {
		choices, err := s.selectFor(d, statemachine.Options{
			MaxStates:  maxStates,
			MaxPathLen: 1,
		})
		if err != nil {
			return nil, err
		}
		prog := ir.CloneProgram(d.C.Prog)
		st, err := replicate.ApplyOpts(prog, choices, predict.ProfileStatic(d.Prof.Counts).Preds,
			replicate.Options{MaxSizeFactor: 3})
		if err != nil {
			return nil, err
		}
		// countingRun renumbers the sites, before the program is shared.
		s.countLiveRun()
		counts, m, err := countingRun(prog, s.Cfg)
		if err != nil {
			return nil, err
		}
		return &replicated{
			Prog:         prog,
			Stats:        st,
			Predicted:    m.Predicted,
			Mispredicted: m.Mispredicted,
			Counts:       counts,
			BlockCounts:  m.BlockCounts(),
		}, nil
	})
}

// MeasuredReplication transforms every workload with realizable machines
// and measures the misprediction rate and size factor of the transformed
// programs — the end-to-end validation of the paper's headline claim.
// One parallel job per workload; the transformed program's run is shared
// with the cross-dataset, layout and scope experiments.
func (s *Suite) MeasuredReplication(maxStates int) (*Table, error) {
	t := &Table{
		ID:    "measured",
		Title: "Measured replication: interpreter-verified rates and sizes",
	}
	type col struct{ base, repl, size Cell }
	cols, err := runner.Map(s.eng, s.Data, func(_ int, d *WorkloadData) (col, error) {
		var c col
		static := predict.ProfileStatic(d.Prof.Counts)
		var err error
		if d.Art != nil {
			// The baseline clone differs from the original only in its
			// Pred annotations, so its measured rate is the static vector
			// scored over the recorded trace — no interpreter run needed.
			c.base = s.staticTraceRate(d.Art, static.Preds)
		} else {
			baseline := ir.CloneProgram(d.C.Prog)
			replicate.Annotate(baseline, static.Preds)
			c.base, err = s.measuredRate(baseline, RunConfig{Budget: s.Cfg.Budget, Seed: s.Cfg.Seed, Scale: scaleFor(s.Cfg)})
			if err != nil {
				return col{}, err
			}
		}

		r, err := s.replicatedFor(d, maxStates)
		if err != nil {
			return col{}, err
		}
		c.repl = r.rate()
		c.size = Cell{Value: r.Stats.SizeFactor(), Valid: true}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	t.Cols = s.colNames()
	base := Row{Name: "profile baseline (measured)"}
	repl := Row{Name: "replicated (measured)"}
	size := Row{Name: "size factor"}
	for _, c := range cols {
		base.Cells = append(base.Cells, c.base)
		repl.Cells = append(repl.Cells, c.repl)
		size.Cells = append(size.Cells, c.size)
	}
	t.Rows = append(t.Rows, base, repl, size)
	return t, nil
}
