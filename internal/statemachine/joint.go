package statemachine

import (
	"fmt"
	"sort"
)

// JointMachine realises the paper's §6 future-work idea: when several
// branches of one loop are replicated, sequential application multiplies
// their state counts; a single machine over all the branches can represent
// the same predictions with fewer states. This implementation builds the
// product of the per-branch machines, then minimises it with Moore
// partition refinement (states with identical prediction vectors and
// equivalent successors merge) and prunes unreachable states. The product
// shrinks whenever a component carries redundant states — common when the
// machine search returns catch-all states that behave identically — or
// when transitions make parts of the product unreachable. (The paper
// proposes a branch-and-bound search for the true optimum; product +
// minimisation is the sound polynomial substitute. The complementary §6
// idea, predicting all loop branches from one shared history, corresponds
// to the correlated path machines, which already key on the interleaved
// branch stream.)
type JointMachine struct {
	// Branches lists the original branch sites, in the order used by
	// Predict and Next.
	Branches []int32
	// NumStates is the minimised state count.
	States int
	// Init is the initial state.
	Init int
	// preds[state][branchIdx] is the prediction of that branch in that
	// state; delta[state][branchIdx][outcome] the transition.
	preds [][]bool
	delta [][][2]int
}

// BuildJoint combines the loop/exit machine choices of branches that share
// one loop into a single minimised machine. Choices of other kinds are
// rejected. At least one choice is required.
func BuildJoint(choices []*Choice) (*JointMachine, error) {
	if len(choices) == 0 {
		return nil, fmt.Errorf("statemachine: joint machine needs at least one branch")
	}
	comps := make([]Machine, len(choices))
	sizes := make([]int, len(choices))
	sites := make([]int32, len(choices))
	for i, c := range choices {
		m := c.Machine()
		if m == nil {
			return nil, fmt.Errorf("statemachine: branch %d has %v machine; joint machines combine loop/exit only", c.Site, c.Kind)
		}
		if err := CheckMachine(m, 1); err != nil {
			return nil, fmt.Errorf("statemachine: branch %d: %w", c.Site, err)
		}
		comps[i], sizes[i] = m, m.NumStates()
		sites[i] = c.Site
	}
	// Product states: mixed-radix tuples.
	total := 1
	for _, n := range sizes {
		total *= n
		if total > 1<<20 {
			return nil, fmt.Errorf("statemachine: product machine too large (>%d states)", 1<<20)
		}
	}
	decode := func(s int) []int {
		out := make([]int, len(comps))
		for i := len(comps) - 1; i >= 0; i-- {
			out[i] = s % sizes[i]
			s /= sizes[i]
		}
		return out
	}
	encode := func(t []int) int {
		s := 0
		for i, n := range sizes {
			s = s*n + t[i]
		}
		return s
	}
	preds := make([][]bool, total)
	delta := make([][][2]int, total)
	for s := 0; s < total; s++ {
		tup := decode(s)
		preds[s] = make([]bool, len(comps))
		delta[s] = make([][2]int, len(comps))
		for i, c := range comps {
			preds[s][i] = c.Predict(tup[i], 0)
			for d := 0; d < 2; d++ {
				nt := make([]int, len(tup))
				copy(nt, tup)
				nt[i], _ = c.Step(tup[i], 0, d == 1)
				delta[s][i][d] = encode(nt)
			}
		}
	}
	initTup := make([]int, len(comps))
	for i, c := range comps {
		initTup[i] = c.InitState()
	}
	jm := &JointMachine{
		Branches: sites,
		States:   total,
		Init:     encode(initTup),
		preds:    preds,
		delta:    delta,
	}
	jm.minimize()
	jm.trimUnreachable()
	return jm, nil
}

// NumStates implements Machine.
func (jm *JointMachine) NumStates() int { return jm.States }

// InitState implements Machine.
func (jm *JointMachine) InitState() int { return jm.Init }

// Predict returns the prediction for branch index bi in the given state
// (not-taken out of range).
func (jm *JointMachine) Predict(state, bi int) bool {
	return state >= 0 && state < jm.States && bi >= 0 && bi < len(jm.Branches) && jm.preds[state][bi]
}

// Step implements Machine: Next, bounds-checked.
func (jm *JointMachine) Step(state, bi int, taken bool) (int, bool) {
	if state < 0 || state >= jm.States || bi < 0 || bi >= len(jm.Branches) {
		return -1, false
	}
	if t := jm.Next(state, bi, taken); t >= 0 && t < jm.States {
		return t, true
	}
	return -1, false
}

// Next is the transition when branch index bi resolves with the outcome.
func (jm *JointMachine) Next(state, bi int, taken bool) int {
	d := 0
	if taken {
		d = 1
	}
	return jm.delta[state][bi][d]
}

// minimize merges Moore-equivalent states by partition refinement.
func (jm *JointMachine) minimize() {
	n := jm.States
	// Initial partition: by prediction vector.
	class := make([]int, n)
	sig := map[string]int{}
	for s := 0; s < n; s++ {
		key := fmt.Sprint(jm.preds[s])
		id, ok := sig[key]
		if !ok {
			id = len(sig)
			sig[key] = id
		}
		class[s] = id
	}
	for {
		next := map[string]int{}
		newClass := make([]int, n)
		for s := 0; s < n; s++ {
			key := fmt.Sprint(class[s])
			for bi := range jm.preds[s] {
				key += fmt.Sprintf(",%d:%d", class[jm.delta[s][bi][0]], class[jm.delta[s][bi][1]])
			}
			id, ok := next[key]
			if !ok {
				id = len(next)
				next[key] = id
			}
			newClass[s] = id
		}
		same := true
		for s := 0; s < n; s++ {
			if newClass[s] != class[s] {
				same = false
				break
			}
		}
		class = newClass
		if same {
			break
		}
	}
	// Rebuild over classes.
	nc := 0
	for s := 0; s < n; s++ {
		if class[s]+1 > nc {
			nc = class[s] + 1
		}
	}
	rep := make([]int, nc)
	for i := range rep {
		rep[i] = -1
	}
	for s := 0; s < n; s++ {
		if rep[class[s]] == -1 {
			rep[class[s]] = s
		}
	}
	preds := make([][]bool, nc)
	delta := make([][][2]int, nc)
	for cidx, s := range rep {
		preds[cidx] = jm.preds[s]
		delta[cidx] = make([][2]int, len(jm.preds[s]))
		for bi := range delta[cidx] {
			delta[cidx][bi][0] = class[jm.delta[s][bi][0]]
			delta[cidx][bi][1] = class[jm.delta[s][bi][1]]
		}
	}
	jm.preds = preds
	jm.delta = delta
	jm.Init = class[jm.Init]
	jm.States = nc
}

// trimUnreachable drops states the initial state can never reach.
func (jm *JointMachine) trimUnreachable() {
	seen := make([]bool, jm.States)
	stack := []int{jm.Init}
	seen[jm.Init] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for bi := range jm.delta[s] {
			for d := 0; d < 2; d++ {
				t := jm.delta[s][bi][d]
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
	}
	var order []int
	for s := 0; s < jm.States; s++ {
		if seen[s] {
			order = append(order, s)
		}
	}
	if len(order) == jm.States {
		return
	}
	sort.Ints(order)
	remap := make([]int, jm.States)
	for i, s := range order {
		remap[s] = i
	}
	preds := make([][]bool, len(order))
	delta := make([][][2]int, len(order))
	for i, s := range order {
		preds[i] = jm.preds[s]
		delta[i] = make([][2]int, len(jm.preds[s]))
		for bi := range delta[i] {
			delta[i][bi][0] = remap[jm.delta[s][bi][0]]
			delta[i][bi][1] = remap[jm.delta[s][bi][1]]
		}
	}
	jm.preds = preds
	jm.delta = delta
	jm.Init = remap[jm.Init]
	jm.States = len(order)
}
