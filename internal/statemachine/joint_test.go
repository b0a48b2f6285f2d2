package statemachine

import (
	"math/rand"
	"testing"

	"repro/internal/profile"
)

// mkLoopChoice builds a loop-machine Choice from an outcome string.
func mkLoopChoice(t *testing.T, site int32, outcomes string, n int) *Choice {
	t.Helper()
	lh := profile.NewLocalHistory(1, 9)
	st := profile.NewStreams(1)
	tm := term(0)
	for _, ch := range outcomes {
		lh.RecordBranch(tm.Site, ch == '1')
		st.RecordBranch(tm.Site, ch == '1')
	}
	m := BestLoopMachineExact(lh.Table(0), 9, n, st.Site(0))
	return &Choice{Site: site, Kind: KindLoop, Loop: m, Hits: m.Hits, Total: m.Total}
}

func TestJointRedundantComponentCollapses(t *testing.T) {
	// A branch whose machine predicts taken in every state carries no
	// information: its two states are Moore-equivalent, so the joint
	// machine with an alternating branch minimises from 2x2=4 to 2.
	redundant := &LoopMachine{
		States:    []Pattern{{Bits: 0, Len: 1}, {Bits: 1, Len: 1}},
		PredTaken: []bool{true, true},
		Init:      1,
	}
	a := &Choice{Site: 0, Kind: KindLoop, Loop: redundant}
	b := mkLoopChoice(t, 1, repeat("10", 200), 2)
	jm, err := BuildJoint([]*Choice{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(jm.Branches) != 2 {
		t.Fatalf("branches = %v", jm.Branches)
	}
	if jm.States != 2 {
		t.Fatalf("joint machine has %d states; want 2 (redundant component must merge)", jm.States)
	}
	// Behaviour must match the components: simulate both in lockstep.
	s := jm.Init
	s0, s1 := a.Loop.Init, b.Loop.Init
	for i := 0; i < 50; i++ {
		o := i%2 == 0
		if jm.Predict(s, 0) != a.Loop.PredTaken[s0] {
			t.Fatalf("step %d: joint prediction for branch 0 diverges", i)
		}
		if jm.Predict(s, 1) != b.Loop.PredTaken[s1] {
			t.Fatalf("step %d: joint prediction for branch 1 diverges", i)
		}
		s = jm.Next(s, 0, o)
		s0 = a.Loop.Next(s0, o)
		s = jm.Next(s, 1, o)
		s1 = b.Loop.Next(s1, o)
	}
}

func TestJointLockstepBranchesKeepMixedStates(t *testing.T) {
	// Two branches alternating in lockstep: between the two branch
	// executions the product is in a mixed state, so the joint machine
	// genuinely needs all four states — composition, not information
	// sharing, is what the product models.
	a := mkLoopChoice(t, 0, repeat("10", 200), 2)
	b := mkLoopChoice(t, 1, repeat("10", 200), 2)
	jm, err := BuildJoint([]*Choice{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if jm.States != 4 {
		t.Fatalf("lockstep joint = %d states, want 4", jm.States)
	}
}

func TestJointIndependentBranchesKeepProduct(t *testing.T) {
	// Alternating and period-3 branches share no information: the product
	// cannot shrink below the reachable product size.
	a := mkLoopChoice(t, 0, repeat("10", 300), 2)
	b := mkLoopChoice(t, 1, repeat("110", 300), 4)
	jm, err := BuildJoint([]*Choice{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if jm.States < 4 {
		t.Fatalf("independent branches collapsed to %d states — predictions must have merged wrongly", jm.States)
	}
	// Simulate: predictions always match the components.
	s := jm.Init
	s0, s1 := a.Loop.Init, b.Loop.Init
	for i := 0; i < 200; i++ {
		oa := i%2 == 0
		ob := i%3 != 2
		if jm.Predict(s, 0) != a.Loop.PredTaken[s0] || jm.Predict(s, 1) != b.Loop.PredTaken[s1] {
			t.Fatalf("step %d: joint prediction diverges", i)
		}
		s = jm.Next(s, 0, oa)
		s0 = a.Loop.Next(s0, oa)
		s = jm.Next(s, 1, ob)
		s1 = b.Loop.Next(s1, ob)
	}
}

func TestJointWithExitMachine(t *testing.T) {
	lh := profile.NewLocalHistory(1, 9)
	tm := term(0)
	for i := 0; i < 500; i++ {
		lh.RecordBranch(tm.Site, i%5 != 4)
	}
	em := NewExitMachine(lh.Table(0), 9, 5, false)
	exitChoice := &Choice{Site: 2, Kind: KindExit, Exit: em, Hits: em.Hits, Total: em.Total}
	loopChoice := mkLoopChoice(t, 3, repeat("10", 200), 2)
	jm, err := BuildJoint([]*Choice{exitChoice, loopChoice})
	if err != nil {
		t.Fatal(err)
	}
	if jm.States > 10 {
		t.Fatalf("joint of 5x2 machines has %d states", jm.States)
	}
	// Exercise transitions for both branch indices.
	s := jm.Init
	for i := 0; i < 30; i++ {
		s = jm.Next(s, 0, i%5 != 4)
		s = jm.Next(s, 1, i%2 == 0)
		if s < 0 || s >= jm.States {
			t.Fatal("transition escaped state space")
		}
	}
}

func TestJointRejectsPathAndEmpty(t *testing.T) {
	if _, err := BuildJoint(nil); err == nil {
		t.Fatal("empty joint must fail")
	}
	pc := &Choice{Site: 1, Kind: KindPath, Path: &PathMachine{}}
	if _, err := BuildJoint([]*Choice{pc}); err == nil {
		t.Fatal("path machines must be rejected")
	}
}

func TestJointNeverExceedsProduct(t *testing.T) {
	for _, pat := range []string{"10", "110", "1110"} {
		c1 := mkLoopChoice(t, 0, repeat(pat, 300), 4)
		c2 := mkLoopChoice(t, 1, repeat(pat, 300), 4)
		jm, err := BuildJoint([]*Choice{c1, c2})
		if err != nil {
			t.Fatal(err)
		}
		if jm.States > c1.Loop.NumStates()*c2.Loop.NumStates() {
			t.Fatalf("pattern %s: joint %d states exceeds the product", pat, jm.States)
		}
		if jm.Init < 0 || jm.Init >= jm.States {
			t.Fatalf("bad init %d", jm.Init)
		}
	}
}

// refMachine is the oracle's view of one component machine, derived from
// its fields alone: the paper's transition rules, not the Machine methods
// BuildJoint reads.
type refMachine struct {
	init int
	pred []bool
	next func(s int, taken bool) int
}

// refOf builds the oracle view of a loop or exit choice. A loop machine
// moves to the longest state that is a suffix of the shifted history
// (Figures 2–4); an exit machine returns to state 0 on the exit direction
// and otherwise climbs to its saturating top state (Figure 5).
func refOf(c *Choice) refMachine {
	if m := c.Loop; m != nil {
		return refMachine{init: m.Init, pred: m.PredTaken, next: func(s int, taken bool) int {
			h := m.States[s].Shift(taken)
			best := -1
			for j, q := range m.States {
				if q.Len <= h.Len && h.Bits&(1<<q.Len-1) == q.Bits && (best < 0 || q.Len > m.States[best].Len) {
					best = j
				}
			}
			return best
		}}
	}
	m := c.Exit
	return refMachine{init: 0, pred: m.PredTaken, next: func(s int, taken bool) int {
		if taken == m.ExitTaken {
			return 0
		}
		return min(s+1, m.N-1)
	}}
}

// randLoopChoice returns a loop choice with a random well-formed n-state
// machine: a complete base (the two 1-bit or, when n ≥ 4, sometimes the
// four 2-bit patterns) grown by random one-bit-older extensions, which
// keeps the set suffix-closed; random predictions and initial state.
func randLoopChoice(rng *rand.Rand, site int32, n int) *Choice {
	states := []Pattern{{Bits: 0, Len: 1}, {Bits: 1, Len: 1}}
	if n >= 4 && rng.Intn(2) == 0 {
		states = []Pattern{{Bits: 0, Len: 2}, {Bits: 1, Len: 2}, {Bits: 2, Len: 2}, {Bits: 3, Len: 2}}
	}
	for len(states) < n {
		p := states[rng.Intn(len(states))].Extend(rng.Intn(2) == 1)
		dup := false
		for _, q := range states {
			dup = dup || q == p
		}
		if !dup {
			states = append(states, p)
		}
	}
	sortPatterns(states)
	m := &LoopMachine{States: states, PredTaken: make([]bool, n), Init: rng.Intn(n)}
	for i := range m.PredTaken {
		m.PredTaken[i] = rng.Intn(2) == 1
	}
	return &Choice{Site: site, Kind: KindLoop, Loop: m}
}

// randExitChoice returns an exit choice with a random n-state machine.
func randExitChoice(rng *rand.Rand, site int32, n int) *Choice {
	m := &ExitMachine{N: n, ExitTaken: rng.Intn(2) == 1, PredTaken: make([]bool, n)}
	for i := range m.PredTaken {
		m.PredTaken[i] = rng.Intn(2) == 1
	}
	return &Choice{Site: site, Kind: KindExit, Exit: m}
}

// checkJointWords runs jm and the oracle views of cs in lockstep over
// every word of (branch index, outcome) letters up to maxLen long: after
// every prefix, jm must predict each branch as its component does, and
// every step must stay inside jm's states.
func checkJointWords(t *testing.T, jm *JointMachine, cs []*Choice, maxLen int) {
	t.Helper()
	refs := make([]refMachine, len(cs))
	tup := make([]int, len(cs))
	for i, c := range cs {
		refs[i] = refOf(c)
		tup[i] = refs[i].init
	}
	var word []int
	var walk func(s int)
	walk = func(s int) {
		for bi, r := range refs {
			if jm.Predict(s, bi) != r.pred[tup[bi]] {
				t.Fatalf("after word %v: joint state %d predicts %v for branch %d, component state %d predicts %v",
					word, s, jm.Predict(s, bi), bi, tup[bi], r.pred[tup[bi]])
			}
		}
		if len(word) == maxLen {
			return
		}
		for bi, r := range refs {
			for _, taken := range [2]bool{false, true} {
				ns, ok := jm.Step(s, bi, taken)
				if !ok {
					t.Fatalf("after word %v: joint state %d has no transition for branch %d on %v", word, s, bi, taken)
				}
				old := tup[bi]
				tup[bi] = r.next(old, taken)
				letter := 2 * bi
				if taken {
					letter++
				}
				word = append(word, letter)
				walk(ns)
				word = word[:len(word)-1]
				tup[bi] = old
			}
		}
	}
	walk(jm.Init)
}

// TestJointBruteForceOracle checks BuildJoint against its definition on
// random well-formed loop and exit machines of 2–5 states, in pairs and
// triples: the minimised joint machine must predict every branch exactly
// as the components run in lockstep do, on every (branch, outcome) word up
// to length 6.
func TestJointBruteForceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		nb := 2 + trial%2
		cs := make([]*Choice, nb)
		for i := range cs {
			n := 2 + rng.Intn(4)
			if rng.Intn(3) == 0 {
				cs[i] = randExitChoice(rng, int32(i), n)
			} else {
				cs[i] = randLoopChoice(rng, int32(i), n)
			}
		}
		jm, err := BuildJoint(cs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		product := 1
		for _, c := range cs {
			product *= c.NumStates()
		}
		if jm.States < 1 || jm.States > product {
			t.Fatalf("trial %d: joint machine has %d states, product %d", trial, jm.States, product)
		}
		checkJointWords(t, jm, cs, 6)
	}
}

// TestJointSingleChoiceIsItsMachine checks that BuildJoint of one choice
// behaves as the choice's own machine on every outcome word up to length 6.
func TestJointSingleChoiceIsItsMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		c := randLoopChoice(rng, 0, n)
		if trial%2 == 1 {
			c = randExitChoice(rng, 0, n)
		}
		jm, err := BuildJoint([]*Choice{c})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if jm.States > n {
			t.Fatalf("trial %d: single %d-state machine became %d joint states", trial, n, jm.States)
		}
		checkJointWords(t, jm, []*Choice{c}, 6)
	}
}
