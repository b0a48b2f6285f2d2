// Package core orchestrates the paper's primary contribution as a single
// pipeline: profile a program, build branch prediction state machines from
// the pattern tables, choose the best strategy per branch, replicate code
// so the machines become program structure, and verify the transformed
// program by executing it.
//
// The pipeline's stages are exported on their own — Profile, Plan, Apply
// and Measure, all built on the one run helper Exec — so the experiment
// suite, the service and the command-line tools compose the same steps
// and keep their own caching. Run composes them end to end; it is the
// backing of cmd/replicate and of the root package's public facade.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/replicate"
	"repro/internal/statemachine"
)

// RunConfig is the one set of knobs every interpreter run takes.
type RunConfig struct {
	// Budget stops the run after this many branch events (0 = run the
	// program to completion). Hitting it is normal completion, reported
	// as truncated.
	Budget uint64
	// Seed sets the program's wseed global when non-zero.
	Seed int64
	// Scale sets the program's wscale global when non-zero. When it is
	// zero under a budget, a declared wscale is raised to 1<<30 so the run
	// does not end before the budget does.
	Scale int64
	// Ctx, when non-nil, stops the run once it is done.
	Ctx context.Context
}

// MissingGlobalError reports a Seed or Scale override on a program that
// declares no scalar global of that name.
type MissingGlobalError struct{ Name string }

func (e *MissingGlobalError) Error() string { return "program has no " + e.Name + " global" }

// Execution is one finished run: the machine with its counters, main's
// return value, and whether an execution limit cut the run short.
type Execution struct {
	*interp.Machine
	Ret       int64
	Truncated bool
}

// Exec runs prog once under rc. setup, when non-nil, attaches hooks,
// counters or extra limits to the machine before it runs. An explicit Seed
// or Scale on a program without that global is a *MissingGlobalError; an
// execution limit (interp.ErrLimit) ends the run normally with Truncated
// set; any other failure is returned.
func Exec(prog *ir.Program, rc RunConfig, setup func(*interp.Machine)) (*Execution, error) {
	m := interp.New(prog)
	m.MaxBranches = rc.Budget
	m.Ctx = rc.Ctx
	if rc.Seed != 0 {
		if err := m.SetGlobal("wseed", rc.Seed); err != nil {
			return nil, &MissingGlobalError{"wseed"}
		}
	}
	switch {
	case rc.Scale != 0:
		if err := m.SetGlobal("wscale", rc.Scale); err != nil {
			return nil, &MissingGlobalError{"wscale"}
		}
	case rc.Budget != 0:
		// Ad-hoc programs need not declare wscale; an array is no knob.
		_ = m.SetGlobal("wscale", 1<<30)
	}
	if setup != nil {
		setup(m)
	}
	ret, err := m.Run()
	e := &Execution{Machine: m, Ret: ret}
	if err != nil {
		if !errors.Is(err, interp.ErrLimit) {
			return nil, err
		}
		e.Truncated = true
	}
	return e, nil
}

// Profile runs prog once under rc and collects the full profile bundle
// (pattern tables, outcome streams and switch targets) from its branch and
// switch events. The caller numbers prog's nSites sites first.
func Profile(prog *ir.Program, nSites int, opts profile.Options, rc RunConfig) (*profile.Profile, error) {
	prof := profile.New(nSites, opts)
	if _, err := Exec(prog, rc, func(m *interp.Machine) {
		m.Hook = prof.Branch
		m.SwHook = prof.Switch
	}); err != nil {
		return nil, err
	}
	return prof, nil
}

// Selection is the planning stage's product: the strategy chosen per
// branch site, and the profile's majority-direction prediction vector that
// annotates every site no machine takes over.
type Selection struct {
	Choices []statemachine.Choice
	Preds   []ir.Prediction
}

// Plan selects a strategy per branch site from a profile.
func Plan(prof *profile.Profile, feats []predict.SiteFeatures, opts statemachine.Options) Selection {
	return Selection{
		Choices: statemachine.Select(prof, feats, opts),
		Preds:   predict.ProfileStatic(prof.Counts).Preds,
	}
}

// Apply replicates a clone of prog so sel's machines become program
// structure — with joint (§6) machines for same-loop branches when joint is
// set — and returns the clone and what the replicator did. prog itself is
// not modified. Stats may be non-nil alongside an error (the verifier's
// diagnostics).
func Apply(prog *ir.Program, sel Selection, opts replicate.Options, joint bool) (*ir.Program, *replicate.Stats, error) {
	clone := ir.CloneProgram(prog)
	apply := replicate.ApplyOpts
	if joint {
		apply = replicate.ApplyJoint
	}
	st, err := apply(clone, sel.Choices, sel.Preds, opts)
	return clone, st, err
}

// Measurement is what one run of a statically annotated program shows.
type Measurement struct {
	// Predicted and Mispredicted count the annotated branches executed
	// and the ones whose annotation was wrong.
	Predicted, Mispredicted uint64
	// Checksum digests every printed value; equal checksums under equal
	// budgets show two programs computed the same thing.
	Checksum uint64
	// Truncated is set when the budget ended the run.
	Truncated bool
}

// Rate is the misprediction percentage.
func (m Measurement) Rate() float64 {
	if m.Predicted == 0 {
		return 0
	}
	return 100 * float64(m.Mispredicted) / float64(m.Predicted)
}

// Measure runs prog once under rc (setup as for Exec) and reports its
// static-prediction counters.
func Measure(prog *ir.Program, rc RunConfig, setup func(*interp.Machine)) (Measurement, error) {
	e, err := Exec(prog, rc, setup)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Predicted:    e.Predicted,
		Mispredicted: e.Mispredicted,
		Checksum:     e.Checksum,
		Truncated:    e.Truncated,
	}, nil
}

// Config parameterises a pipeline run.
type Config struct {
	// MaxStates bounds every state machine (default 5).
	MaxStates int
	// MaxPathLen caps correlated path lengths; 1 (the default) keeps every
	// selected machine realizable by the replicator.
	MaxPathLen int
	// MaxSizeFactor bounds code growth (default 3).
	MaxSizeFactor float64
	// LocalK / GlobalK / PathM set the profile history lengths
	// (defaults 9 / 9 / 3, the paper's).
	LocalK, GlobalK, PathM int
	// Joint replicates same-loop branches with joint (§6) machines.
	Joint bool
	// Verify runs the replication-equivalence verifier on the transform.
	Verify bool
	// Run configures the profiling and both measuring runs.
	Run RunConfig
}

func (c *Config) setDefaults() {
	if c.MaxStates == 0 {
		c.MaxStates = 5
	}
	if c.MaxPathLen == 0 {
		c.MaxPathLen = 1
	}
	if c.MaxSizeFactor == 0 {
		c.MaxSizeFactor = 3
	}
}

// Result is the outcome of one pipeline run.
type Result struct {
	// Original and Replicated are the untouched and transformed programs.
	Original, Replicated *ir.Program
	// Profile is the collected profile of the original program.
	Profile *profile.Profile
	// Choices is the selected strategy per original branch site.
	Choices []statemachine.Choice
	// Stats reports what the replicator did.
	Stats *replicate.Stats
	// Baseline and Transformed are the measured runs of the
	// profile-annotated original and of the transformed program. Equal
	// checksums prove semantic equivalence when the runs complete
	// naturally (equal budgets make them comparable under truncation too).
	Baseline, Transformed Measurement
}

// SizeFactor is the measured code growth.
func (r *Result) SizeFactor() float64 { return r.Stats.SizeFactor() }

// CompileBL compiles BL source text.
func CompileBL(src string) (*ir.Program, error) { return lang.Compile(src) }

// Run executes the full pipeline on a compiled program, numbering its
// branch sites afresh.
func Run(prog *ir.Program, cfg Config) (*Result, error) {
	cfg.setDefaults()
	nSites := prog.NumberBranches(true)
	prof, err := Profile(prog, nSites, profile.Options{
		LocalK: cfg.LocalK, GlobalK: cfg.GlobalK, PathM: cfg.PathM,
	}, cfg.Run)
	if err != nil {
		return nil, fmt.Errorf("core: profiling run: %w", err)
	}
	sel := Plan(prof, predict.Analyze(prog), statemachine.Options{
		MaxStates:  cfg.MaxStates,
		MaxPathLen: cfg.MaxPathLen,
	})

	baseline := ir.CloneProgram(prog)
	replicate.Annotate(baseline, sel.Preds)
	base, err := Measure(baseline, cfg.Run, nil)
	if err != nil {
		return nil, fmt.Errorf("core: baseline run: %w", err)
	}

	clone, stats, err := Apply(prog, sel, replicate.Options{
		MaxSizeFactor: cfg.MaxSizeFactor,
		Verify:        cfg.Verify,
	}, cfg.Joint)
	if err != nil {
		return nil, err
	}
	repl, err := Measure(clone, cfg.Run, nil)
	if err != nil {
		return nil, fmt.Errorf("core: replicated run: %w", err)
	}

	return &Result{
		Original:    prog,
		Replicated:  clone,
		Profile:     prof,
		Choices:     sel.Choices,
		Stats:       stats,
		Baseline:    base,
		Transformed: repl,
	}, nil
}

// RunBL compiles and runs the pipeline on BL source.
func RunBL(src string, cfg Config) (*Result, error) {
	prog, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	return Run(prog, cfg)
}
