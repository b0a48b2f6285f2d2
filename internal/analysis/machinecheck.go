package analysis

import (
	"repro/internal/ir"
	"repro/internal/statemachine"
)

// Machines checks well-formedness of the selected prediction machines:
// transition functions are total and deterministic over valid states, every
// state is reachable from the initial state, per-state majority data is
// consistent, and score counters are sane. Applied joint machines (recorded
// in the provenance) get the same treatment.
type Machines struct{}

// Name implements Pass.
func (Machines) Name() string { return "machines" }

// Run implements Pass.
func (Machines) Run(c *Context) {
	for i := range c.Choices {
		ch := &c.Choices[i]
		pos := sitePos(c, ch.Site)
		switch ch.Kind {
		case statemachine.KindLoop:
			checkLoopMachine(c, pos, ch.Loop)
		case statemachine.KindExit:
			checkExitMachine(c, pos, ch.Exit)
		case statemachine.KindPath:
			checkPathMachine(c, pos, ch.Path)
		}
		if ch.Hits > ch.Total {
			c.Errorf(pos, "site %d: machine scored %d hits out of %d events", ch.Site, ch.Hits, ch.Total)
		}
	}
	for _, app := range c.Prov.Apps() {
		checkModel(c, app.M)
	}
}

// sitePos locates the first current block descending from branch site.
func sitePos(c *Context, site int32) Pos {
	for _, f := range c.Prog.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op == ir.TermBr && b.Term.Orig == site {
				return BlockPos(f, b)
			}
		}
	}
	return Pos{}
}

func checkLoopMachine(c *Context, pos Pos, m *statemachine.LoopMachine) {
	if m == nil {
		c.Errorf(pos, "loop choice without a machine")
		return
	}
	n := m.NumStates()
	if len(m.PredTaken) != n {
		c.Errorf(pos, "loop machine has %d predictions for %d states", len(m.PredTaken), n)
		return
	}
	if m.Init < 0 || m.Init >= n {
		c.Errorf(pos, "loop machine initial state %d out of range (%d states)", m.Init, n)
		return
	}
	// Totality + reachability in one BFS over the transition function.
	seen := make([]bool, n)
	seen[m.Init] = true
	queue := []int{m.Init}
	total := true
	for i := 0; i < n && total; i++ {
		for _, taken := range [2]bool{false, true} {
			if _, ok := m.Step(i, 0, taken); !ok {
				c.Errorf(pos, "loop machine state %v has no transition on %v: state set is incomplete", m.States[i], taken)
				total = false
			}
		}
	}
	if !total {
		return
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, taken := range [2]bool{false, true} {
			j, _ := m.Step(i, 0, taken)
			if !seen[j] {
				seen[j] = true
				queue = append(queue, j)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			c.Warnf(pos, "loop machine state %v is unreachable from the initial state", m.States[i])
		}
	}
}

func checkExitMachine(c *Context, pos Pos, m *statemachine.ExitMachine) {
	if m == nil {
		c.Errorf(pos, "exit choice without a machine")
		return
	}
	if m.N < 2 {
		c.Errorf(pos, "exit machine has %d states, need at least 2", m.N)
		return
	}
	if len(m.PredTaken) != m.N {
		c.Errorf(pos, "exit machine has %d predictions for %d states", len(m.PredTaken), m.N)
		return
	}
	if err := statemachine.CheckMachine(m, 1); err != nil {
		c.Errorf(pos, "exit machine: %v", err)
	}
}

func checkPathMachine(c *Context, pos Pos, m *statemachine.PathMachine) {
	if m == nil {
		c.Errorf(pos, "path choice without a machine")
		return
	}
	if len(m.PredTaken) != len(m.Paths) || len(m.StatePairs) != len(m.Paths) {
		c.Errorf(pos, "path machine has %d paths, %d predictions, %d count pairs", len(m.Paths), len(m.PredTaken), len(m.StatePairs))
		return
	}
	for i := range m.Paths {
		if m.PredTaken[i] != m.StatePairs[i].MajorityTaken() {
			c.Errorf(pos, "path state %v predicts %v against its majority counts %v", m.Paths[i], m.PredTaken[i], m.StatePairs[i])
		}
		if m.StatePairs[i].Total() == 0 {
			c.Warnf(pos, "path state %v was selected with empty majority counts", m.Paths[i])
		}
	}
	if m.CatchPred != m.CatchPair.MajorityTaken() {
		c.Errorf(pos, "path catch-all predicts %v against its majority counts %v", m.CatchPred, m.CatchPair)
	}
}

// checkModel checks an applied machine (notably a §6 joint machine, which
// exists only as an application) for total in-range transitions.
func checkModel(c *Context, m statemachine.Machine) {
	jm, ok := m.(*statemachine.JointMachine)
	if !ok {
		return // loop/exit machines are covered through their Choice
	}
	if err := statemachine.CheckMachine(jm, len(jm.Branches)); err != nil {
		c.Errorf(Pos{}, "joint machine: %v", err)
	}
}
