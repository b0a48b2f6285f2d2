package statemachine

import "fmt"

// Machine is the one view of a prediction state machine that loop
// replication materialises (Figure 1), the §6 joint construction combines
// and the replication verifier checks: a finite automaton over (state,
// branch index, outcome) with a static prediction per (state, branch).
// Loop and exit machines govern one branch, index 0; a joint machine
// governs len(Branches). *LoopMachine, *ExitMachine and *JointMachine
// implement it on their own fields.
//
// Predict and Step are bounds-checked: an out-of-range state or branch
// predicts not-taken and has no transition, and Step reports false for a
// transition the machine does not define (an incomplete loop state set),
// so analyses diagnose a malformed machine instead of crashing on it.
type Machine interface {
	NumStates() int
	InitState() int
	Predict(state, branch int) bool
	Step(state, branch int, taken bool) (next int, ok bool)
}

// Machine returns the choice's loop or exit machine, or nil for other
// kinds and for a loop or exit choice that carries no machine.
func (c *Choice) Machine() Machine {
	switch {
	case c.Kind == KindLoop && c.Loop != nil:
		return c.Loop
	case c.Kind == KindExit && c.Exit != nil:
		return c.Exit
	}
	return nil
}

// CheckMachine checks m's shape over branch indices 0..branches-1: at
// least one state, an initial state in range, and a defined in-range
// transition from every (state, branch, outcome).
func CheckMachine(m Machine, branches int) error {
	n := m.NumStates()
	if n < 1 {
		return fmt.Errorf("statemachine: machine has no states")
	}
	if init := m.InitState(); init < 0 || init >= n {
		return fmt.Errorf("statemachine: initial state %d out of range (%d states)", init, n)
	}
	for s := 0; s < n; s++ {
		for bi := 0; bi < branches; bi++ {
			for _, taken := range [2]bool{false, true} {
				if t, ok := m.Step(s, bi, taken); !ok || t < 0 || t >= n {
					return fmt.Errorf("statemachine: no transition from state %d, branch %d on %v", s, bi, taken)
				}
			}
		}
	}
	return nil
}

// CheckShape checks that c is a choice Select could have made for a
// program with nsites branch sites, so code that trusts the choice cannot
// index out of range: the site is below nsites, the kind names the one
// machine c carries, that machine has one prediction per state, a loop or
// exit machine passes CheckMachine, and no score counts more hits than
// events. Choices decoded from outside the process (kralld's disk tier)
// pass through it.
func (c *Choice) CheckShape(nsites int) error {
	if c.Site < 0 || int(c.Site) >= nsites {
		return fmt.Errorf("statemachine: choice for site %d of a %d-site program", c.Site, nsites)
	}
	if c.Hits > c.Total || c.ProfileHits > c.ProfileTotal {
		return fmt.Errorf("statemachine: site %d scores more hits than events", c.Site)
	}
	carried := 0
	for _, has := range [3]bool{c.Loop != nil, c.Exit != nil, c.Path != nil} {
		if has {
			carried++
		}
	}
	var preds, states int
	switch {
	case c.Kind == KindProfile && carried == 0:
		return nil
	case c.Kind == KindLoop && c.Loop != nil && carried == 1:
		preds, states = len(c.Loop.PredTaken), len(c.Loop.States)
	case c.Kind == KindExit && c.Exit != nil && carried == 1:
		preds, states = len(c.Exit.PredTaken), c.Exit.N
	case c.Kind == KindPath && c.Path != nil && carried == 1:
		if len(c.Path.StatePairs) != len(c.Path.Paths) {
			return fmt.Errorf("statemachine: site %d path machine has %d count pairs for %d paths", c.Site, len(c.Path.StatePairs), len(c.Path.Paths))
		}
		preds, states = len(c.Path.PredTaken), len(c.Path.Paths)
	default:
		return fmt.Errorf("statemachine: site %d %v choice carries %d machines", c.Site, c.Kind, carried)
	}
	if preds != states {
		return fmt.Errorf("statemachine: site %d %v machine has %d predictions for %d states", c.Site, c.Kind, preds, states)
	}
	if m := c.Machine(); m != nil {
		if err := CheckMachine(m, 1); err != nil {
			return fmt.Errorf("site %d: %w", c.Site, err)
		}
	}
	return nil
}
