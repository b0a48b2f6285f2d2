package statemachine

import (
	"fmt"

	"repro/internal/profile"
)

// ExitMachine is the loop-exit branch state machine of Figure 5: state i
// (0 ≤ i < N-1) means "the loop has run i iterations since the last exit";
// the top state N-1 is a saturating catch-all for longer runs. An exit
// outcome returns to state 0, which is also the machine's initial state
// ("the loop exit in the last execution").
//
// With the history normalised so that 0 = exit and 1 = stay, the states are
// the patterns 0, 01, 011, …, 01^(N-2) plus the all-ones catch-all 1^(N-1):
// a disjoint, complete partition, so each state's counts come straight from
// the pattern table. Even/odd iteration alternation (the paper's Figure 5
// observation) shows up as opposite majorities in adjacent states and is
// captured automatically.
type ExitMachine struct {
	// N is the state count (≥ 2).
	N int
	// ExitTaken reports which branch direction leaves the loop.
	ExitTaken bool
	// PredTaken[i] is state i's majority direction (in raw, unnormalised
	// branch polarity).
	PredTaken []bool
	// Hits and Total score the machine against the profiled counts.
	Hits, Total uint64
}

// NewExitMachine scores the N-state exit machine for a branch with the
// given k-bit pattern table (raw polarity) whose exit direction is
// exitTaken. Requires N-1 ≤ k so the top state is observable.
func NewExitMachine(tab []profile.Pair, k, n int, exitTaken bool) *ExitMachine {
	if n < 2 {
		panic(fmt.Sprintf("statemachine: exit machine needs >= 2 states, got %d", n))
	}
	if n-1 > k {
		panic(fmt.Sprintf("statemachine: %d-state exit machine needs %d-bit history, have %d", n, n-1, k))
	}
	t := NewCountTree(tab, k)
	m := &ExitMachine{N: n, ExitTaken: exitTaken, PredTaken: make([]bool, n)}
	// normalise: "stay" bit value in raw history.
	stay := uint32(1)
	if exitTaken {
		stay = 0
	}
	for i := 0; i < n; i++ {
		var p Pattern
		if i < n-1 {
			// i stay-outcomes then one exit: low i bits = stay value,
			// bit i = exit value.
			p.Len = uint8(i + 1)
			for b := 0; b < i; b++ {
				p.Bits |= stay << uint(b)
			}
			p.Bits |= (1 - stay) << uint(i)
		} else {
			// top state: N-1 consecutive stay outcomes.
			p.Len = uint8(n - 1)
			for b := 0; b < n-1; b++ {
				p.Bits |= stay << uint(b)
			}
		}
		c := t.Count(p)
		m.PredTaken[i] = c.MajorityTaken()
		m.Hits += c.Hits()
		m.Total += c.Total()
	}
	return m
}

// Next is the transition function.
func (m *ExitMachine) Next(i int, taken bool) int {
	if taken == m.ExitTaken {
		return 0
	}
	if i+1 < m.N-1 {
		return i + 1
	}
	return m.N - 1
}

// Step implements Machine: Next for branch 0, bounds-checked.
func (m *ExitMachine) Step(state, branch int, taken bool) (int, bool) {
	if branch != 0 || state < 0 || state >= m.N {
		return -1, false
	}
	return m.Next(state, taken), true
}

// NumStates returns the machine size.
func (m *ExitMachine) NumStates() int { return m.N }

// InitState implements Machine: state 0, "the loop exit in the last
// execution".
func (m *ExitMachine) InitState() int { return 0 }

// Predict implements Machine: state's majority direction for branch 0.
func (m *ExitMachine) Predict(state, branch int) bool {
	return branch == 0 && state >= 0 && state < len(m.PredTaken) && m.PredTaken[state]
}

// Misses is the mispredicted event count.
func (m *ExitMachine) Misses() uint64 { return m.Total - m.Hits }

// Rate is the misprediction rate in percent.
func (m *ExitMachine) Rate() float64 {
	if m.Total == 0 {
		return 0
	}
	return 100 * float64(m.Misses()) / float64(m.Total)
}

func (m *ExitMachine) String() string {
	return fmt.Sprintf("exit machine %d states (exitTaken=%v) rate=%.2f%%", m.N, m.ExitTaken, m.Rate())
}
