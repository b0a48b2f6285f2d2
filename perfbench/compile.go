package main

import (
	_ "embed"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/replicate"
	"repro/internal/statemachine"
)

// The compile workload is the compiler user's path: one program at a time
// through lang → profiled interp run → predict + statemachine →
// replicate (verified) → baseline and replicated runs. Its inputs are the
// catalog and dispatch workloads plus a corpus of generated progen
// programs of varied size, so branch behaviour varies across many
// programs, not only the eleven fixed ones. Every run must finish within
// its budget, so the oracle compares what the programs printed and
// returned at the end. The interpreter is the largest layer; machine
// search is about a sixth.
//
// The inputs are the same for every seed, which only orders the program
// list. Drawn anew per seed, a few outliers (a replication taking 100 ms,
// a loop with many instructions per branch) moved a pass's time by 16%
// and its p99 by half across five seeds; per-seed datasets for the fixed
// programs spread the misprediction rate by 15% and the p99 by 22%.

const (
	compileStates = 5 // machine size, as cmd/replicate
	// fixedBudget bounds every run of a catalog or dispatch program. They
	// run one round (wscale 1), which takes 1k (auto) to 15M (prolog on
	// its default dataset) branch events.
	fixedBudget = 1_000_000
	// progenBudget bounds every run of a generated program. A program
	// joins the corpus only if it finishes within it, running at least
	// progenMinBranches branch events; most of the shorter ones execute a
	// handful of branches and no loop, leaving a predictor nothing to
	// learn.
	progenBudget      = 50_000
	progenMinBranches = 2_000
	progenCount       = 200 // generated programs a pass, beside the 11 fixed
)

// fixedDatasets gives each catalog and dispatch program its dataset
// (wseed; 0 is the program's default): the first of 0, 1, 2, … on which
// it finishes within fixedBudget. TestFixedDatasets re-derives them.
var fixedDatasets = map[string]int64{
	"prolog": 3,
}

// progenShapes cycle over the generated programs: a few hundred to a few
// thousand IR instructions each.
var progenShapes = []progen.Config{
	{MaxFuncs: 2, MaxStmtsPerBlock: 4, MaxDepth: 3, MaxLoopTrip: 12, Arrays: 2},
	{MaxFuncs: 3, MaxStmtsPerBlock: 4, MaxDepth: 3, MaxLoopTrip: 12, Arrays: 2},
	{MaxFuncs: 4, MaxStmtsPerBlock: 5, MaxDepth: 4, MaxLoopTrip: 12, Arrays: 2},
}

// progenSeeds is the corpus: for slot i, the first seed of the sequence
// i·1000003, i·1000003+1, … whose program, in shape i mod 3, finishes
// within progenBudget after at least progenMinBranches branch events.
// Finding them takes half a minute, so they are committed;
// TestProgenCorpus re-derives a sample and -update rewrites the list.
//
//go:embed testdata/progen_seeds.txt
var progenSeeds string

type compileProgram struct {
	name   string
	src    string
	budget uint64 // branch events each run may take
	// fixed marks a catalog or dispatch program, run at wscale 1 on the
	// dataset wseed (0 = the program's default).
	fixed bool
	wseed int64
}

type compileWL struct {
	programs []compileProgram
}

// setupCompile builds the program list: the catalog and dispatch
// workloads on their datasets and the progenCount corpus programs,
// generated from their seeds, in an order drawn from the seed.
func setupCompile(o options) (workload, error) {
	c := &compileWL{}
	n := progenCount
	if o.short {
		n = 4
	} else {
		for _, w := range append(bench.Workloads(), bench.IndirectWorkloads()...) {
			c.programs = append(c.programs, compileProgram{
				name: w.Name, src: w.Source, budget: fixedBudget, fixed: true, wseed: fixedDatasets[w.Name],
			})
		}
	}
	seeds, err := corpusSeeds()
	if err != nil {
		return nil, err
	}
	if len(seeds) < n {
		return nil, fmt.Errorf("progen corpus holds %d seeds, want %d", len(seeds), n)
	}
	for i, seed := range seeds[:n] {
		c.programs = append(c.programs, progenProgram(i, seed))
	}
	rand.New(rand.NewSource(o.seed)).Shuffle(len(c.programs), func(i, j int) {
		c.programs[i], c.programs[j] = c.programs[j], c.programs[i]
	})
	return c, nil
}

// corpusSeeds parses the committed corpus, one seed a line.
func corpusSeeds() ([]int64, error) {
	var seeds []int64
	for _, f := range strings.Fields(progenSeeds) {
		seed, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("progen corpus: %w", err)
		}
		seeds = append(seeds, seed)
	}
	return seeds, nil
}

// progenProgram is corpus slot i's program for progen seed seed.
func progenProgram(i int, seed int64) compileProgram {
	return compileProgram{
		name:   fmt.Sprintf("progen-%d", seed),
		src:    progen.Generate(seed, progenShapes[i%len(progenShapes)]),
		budget: progenBudget,
	}
}

func (c *compileWL) close() error { return nil }

// runOut is one interpreter run: the machine, with its counters, and
// what main returned.
type runOut struct {
	m        *interp.Machine
	ret      int64
	finished bool // false: stopped at the branch budget
}

// compileOutcome is what one program's pipeline produced.
type compileOutcome struct {
	choices  []statemachine.Choice
	stats    *replicate.Stats
	orig     runOut // profiled run of the original
	base     runOut // annotated baseline run
	repl     runOut // replicated run
	branches uint64 // branch events the three runs executed
}

func (c *compileWL) pass(tr *tracer) (*passStats, error) {
	ps := &passStats{counts: map[string]float64{}}
	start := time.Now()
	root := tr.begin(rootName, 0)
	for _, p := range c.programs {
		t0 := time.Now()
		out, err := one(p, tr, root)
		ps.opTimes = append(ps.opTimes, time.Since(t0))
		if err == nil {
			err = checkReplicated(out)
		}
		if err != nil {
			ps.failed++
			fmt.Fprintf(os.Stderr, "compile: %s: %v\n", p.name, err)
			continue
		}
		ps.miss += float64(out.repl.m.Mispredicted)
		ps.pred += float64(out.repl.m.Predicted)
		ps.before += float64(out.stats.InstrsBefore)
		ps.after += float64(out.stats.InstrsAfter)
		if tr != nil {
			for _, ch := range out.choices {
				switch ch.Kind {
				case statemachine.KindLoop:
					ps.counts["statemachine.loop_machines"]++
				case statemachine.KindExit:
					ps.counts["statemachine.exit_machines"]++
				case statemachine.KindPath:
					ps.counts["statemachine.path_machines"]++
				}
			}
			ps.counts["replicate.skipped"] += float64(out.stats.Skipped)
			ps.counts["ir.instrs_in"] += float64(out.stats.InstrsBefore)
			ps.counts["ir.instrs_out"] += float64(out.stats.InstrsAfter)
			ps.counts["interp.branches"] += float64(out.branches)
		}
	}
	tr.end(root)
	ps.wall = time.Since(start)
	return ps, nil
}

// one puts program p through the whole pipeline, one span per layer call.
func one(p compileProgram, tr *tracer, root int) (*compileOutcome, error) {
	out := &compileOutcome{}
	parent := tr.begin("program", root)
	defer tr.end(parent)

	var prog *ir.Program
	var err error
	tr.call("lang.compile", parent, func() { prog, err = lang.Compile(p.src) })
	if err != nil {
		return nil, err
	}
	nSites := prog.NumberBranches(true)
	prof := profile.New(nSites, profile.Options{})
	tr.call("interp.profile_run", parent, func() { out.orig, err = execute(prog, p, prof.Branch) })
	if err != nil {
		return nil, fmt.Errorf("profiled run: %w", err)
	}
	var feats []predict.SiteFeatures
	tr.call("predict.analyze", parent, func() { feats = predict.Analyze(prog) })
	tr.call("statemachine.select", parent, func() {
		out.choices = statemachine.Select(prof, feats, statemachine.Options{MaxStates: compileStates, MaxPathLen: 1})
	})
	preds := predict.ProfileStatic(prof.Counts).Preds

	baseline := ir.CloneProgram(prog)
	replicate.Annotate(baseline, preds)
	clone := ir.CloneProgram(prog)
	opts := replicate.Options{MaxSizeFactor: 3}
	if tr != nil {
		// Split replicate from its verifier: the traced run times the
		// transform alone on a spare clone, and the verified call's extra
		// time is the analysis layer's.
		spare := ir.CloneProgram(prog)
		tr.call(overheadName, parent, func() { _, err = replicate.ApplyOpts(spare, out.choices, preds, opts) })
		if err != nil {
			return nil, err
		}
	}
	opts.Verify = true
	tr.call("replicate.apply", parent, func() { out.stats, err = replicate.ApplyOpts(clone, out.choices, preds, opts) })
	if err != nil {
		return nil, err
	}
	tr.call("interp.run", parent, func() { out.base, err = execute(baseline, p, nil) })
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	tr.call("interp.run", parent, func() { out.repl, err = execute(clone, p, nil) })
	if err != nil {
		return nil, fmt.Errorf("replicated run: %w", err)
	}
	out.branches = out.orig.m.Branches + out.base.m.Branches + out.repl.m.Branches
	return out, nil
}

// execute runs prog, a compilation of p, until it finishes or reaches p's
// branch budget.
func execute(prog *ir.Program, p compileProgram, hook interp.BranchFunc) (runOut, error) {
	m := interp.New(prog)
	m.MaxBranches = p.budget
	m.Hook = hook
	if p.fixed {
		if err := m.SetGlobal("wscale", 1); err != nil {
			return runOut{}, err
		}
		if p.wseed != 0 {
			if err := m.SetGlobal("wseed", p.wseed); err != nil {
				return runOut{}, err
			}
		}
	}
	ret, err := m.Run()
	if errors.Is(err, interp.ErrLimit) {
		return runOut{m: m}, nil
	}
	if err != nil {
		return runOut{}, err
	}
	return runOut{m: m, ret: ret, finished: true}, nil
}

// checkReplicated is the compile workload's oracle: every run must have
// finished, the original must have printed, and the annotated and
// replicated programs must print and return exactly what the original
// did; the equivalence verifier must have passed the transform.
func checkReplicated(out *compileOutcome) error {
	orig := out.orig
	if !orig.finished {
		return errors.New("original run did not finish within the branch budget")
	}
	if orig.m.Prints == 0 {
		return errors.New("original run printed nothing")
	}
	for _, r := range []struct {
		name string
		run  runOut
	}{{"baseline", out.base}, {"replicated", out.repl}} {
		if !r.run.finished {
			return fmt.Errorf("%s run did not finish within the branch budget", r.name)
		}
		if r.run.m.Checksum != orig.m.Checksum || r.run.m.Prints != orig.m.Prints || r.run.ret != orig.ret {
			return fmt.Errorf("%s output differs: checksum %d (%d prints), returned %d; original %d (%d prints), returned %d",
				r.name, r.run.m.Checksum, r.run.m.Prints, r.run.ret, orig.m.Checksum, orig.m.Prints, orig.ret)
		}
	}
	if !out.stats.Verified {
		return errors.New("replication not verified")
	}
	if d := analysis.FirstError(out.stats.Diags); d != nil {
		return fmt.Errorf("verifier: %v", d)
	}
	return nil
}

func (c *compileWL) layers(tr *tracer, traced []*passStats) map[string]float64 {
	n := float64(len(traced))
	self := tr.selfTimes()
	vals := map[string]float64{}
	for _, name := range []string{"lang.compile", "interp.profile_run", "interp.run", "predict.analyze", "statemachine.select"} {
		vals[name+"_s"] = self[name].Seconds() / n
	}
	// The verified call minus the unverified one is the verifier's time.
	vals["replicate.apply_s"] = self[overheadName].Seconds() / n
	vals["analysis.verify_s"] = (self["replicate.apply"] - self[overheadName]).Seconds() / n
	counts := sumCounts(traced)
	vals["interp.branches_per_s"] = counts["interp.branches"] / (self["interp.profile_run"] + self["interp.run"]).Seconds()
	for _, name := range []string{"statemachine.loop_machines", "statemachine.exit_machines", "statemachine.path_machines",
		"replicate.skipped", "ir.instrs_in", "ir.instrs_out"} {
		vals[name] = counts[name] / n
	}
	return vals
}

// sumCounts adds up the counters of the traced passes.
func sumCounts(traced []*passStats) map[string]float64 {
	out := map[string]float64{}
	for _, ps := range traced {
		for k, v := range ps.counts {
			out[k] += v
		}
	}
	return out
}
