// Package bench contains the eight BL workloads substituting for the
// paper's benchmark suite (abalone, c-compiler, compress, ghostview,
// predict, prolog, scheduler, doduc — see DESIGN.md for the archetype
// mapping) and the experiment drivers that regenerate every table and
// figure of the evaluation section.
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/trace"
)

// Workload is one benchmark program.
type Workload struct {
	// Name matches the paper's benchmark column.
	Name string
	// Source is the BL program text.
	Source string
	// Archetype documents which original benchmark it substitutes.
	Archetype string
}

// Workloads returns the suite in the paper's column order.
func Workloads() []Workload {
	return []Workload{
		{"abalone", abaloneSrc, "board game with alpha-beta search"},
		{"cc", ccSrc, "lcc compiler front end"},
		{"compress", compressSrc, "SPEC compress (LZW)"},
		{"ghostview", ghostviewSrc, "X PostScript previewer"},
		{"predict", predictSrc, "the paper's own profiling tool"},
		{"prolog", prologSrc, "minivip Prolog interpreter"},
		{"scheduler", schedulerSrc, "instruction scheduler"},
		{"doduc", doducSrc, "SPEC doduc hydrocode (floating point)"},
	}
}

// ByName returns a workload by name: the paper suite first, then the
// indirect-dispatch workloads (which stay out of Workloads so the paper's
// pinned tables never change shape).
func ByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	for _, w := range IndirectWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Compiled is a workload compiled to IR with its static analyses.
type Compiled struct {
	Workload Workload
	Prog     *ir.Program
	NSites   int
	Features []predict.SiteFeatures
}

// Compile builds a workload.
func Compile(w Workload) (*Compiled, error) {
	prog, err := lang.Compile(w.Source)
	if err != nil {
		return nil, fmt.Errorf("bench: compiling %s: %w", w.Name, err)
	}
	n := prog.NumberBranches(true)
	return &Compiled{
		Workload: w,
		Prog:     prog,
		NSites:   n,
		Features: predict.Analyze(prog),
	}, nil
}

// Run executes the compiled program under rc, feeding every branch and
// switch event to sink (nil for none; fan out with trace.Multi), and
// returns the finished execution for its counters.
func (c *Compiled) Run(rc core.RunConfig, sink trace.Sink) (*core.Execution, error) {
	e, err := core.Exec(c.Prog, rc, func(m *interp.Machine) {
		if sink != nil {
			m.Hook = func(t *ir.Term, taken bool) { sink.RecordBranch(t.Site, taken) }
			m.SwHook = func(t *ir.Term, outcome int32) { sink.RecordSwitch(t.Orig, outcome, 1) }
		}
	})
	if err != nil {
		return nil, fmt.Errorf("bench: running %s: %w", c.Workload.Name, err)
	}
	return e, nil
}
