package statemachine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/profile"
)

// LoopMachine is an intra-loop branch prediction state machine: each state
// is a local-history pattern, the state set is complete (every history
// matches some state), and the transition on an outcome moves to the
// longest state matching the new (truncated) history. Replicated code
// realises one loop copy per state (Figure 1).
type LoopMachine struct {
	// States is sorted by (Len, Bits); the set is suffix-closed over its
	// base (either the two 1-bit catch-alls or the four 2-bit ones).
	States []Pattern
	// PredTaken[i] is state i's majority direction.
	PredTaken []bool
	// Init is the initial state index (the heaviest base state).
	Init int
	// Hits and Total score the machine against the profiled counts.
	Hits, Total uint64
}

// NumStates returns the machine size.
func (m *LoopMachine) NumStates() int { return len(m.States) }

// Rate is the misprediction rate in percent.
func (m *LoopMachine) Rate() float64 {
	if m.Total == 0 {
		return 0
	}
	return 100 * float64(m.Total-m.Hits) / float64(m.Total)
}

// Misses is the mispredicted event count.
func (m *LoopMachine) Misses() uint64 { return m.Total - m.Hits }

// StateIndex returns the index of pattern p, or -1.
func (m *LoopMachine) StateIndex(p Pattern) int {
	for i, q := range m.States {
		if q == p {
			return i
		}
	}
	return -1
}

// InitState implements Machine.
func (m *LoopMachine) InitState() int { return m.Init }

// Predict implements Machine: state's majority direction for branch 0.
func (m *LoopMachine) Predict(state, branch int) bool {
	return branch == 0 && state >= 0 && state < len(m.PredTaken) && m.PredTaken[state]
}

// Next is the transition function: from state i with the given outcome,
// move to the longest state matching the new truncated history. The state
// set's completeness guarantees a match.
func (m *LoopMachine) Next(i int, taken bool) int {
	j, ok := m.Step(i, 0, taken)
	if !ok {
		panic(fmt.Sprintf("statemachine: incomplete state set %v lacks match for %v", m.States, m.States[i].Shift(taken)))
	}
	return j
}

// Step implements Machine: Next for branch 0 that reports false, instead
// of panicking, when the state set is incomplete (no state matches the
// shifted history).
func (m *LoopMachine) Step(state, branch int, taken bool) (int, bool) {
	if branch != 0 || state < 0 || state >= len(m.States) {
		return -1, false
	}
	cand := m.States[state].Shift(taken)
	best := -1
	var bestLen uint8
	for j, q := range m.States {
		if q.Len <= cand.Len && q.IsSuffixOf(cand) {
			if best == -1 || q.Len > bestLen {
				best, bestLen = j, q.Len
			}
		}
	}
	if best == -1 {
		return -1, false
	}
	return best, true
}

func (m *LoopMachine) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loop machine %d states:", len(m.States))
	for i, s := range m.States {
		d := "N"
		if m.PredTaken[i] {
			d = "T"
		}
		fmt.Fprintf(&sb, " %v→%s", s, d)
		if i == m.Init {
			sb.WriteString("*")
		}
	}
	return sb.String()
}

// scoreStates computes longest-match hits for a complete pattern set:
// eff(p) = cnt(p) − cnt(p extended by 0, if a state) − cnt(p extended by 1,
// if a state); hits = Σ max(effTaken, effNotTaken). It also returns the
// per-state majority directions.
func scoreStates(t *CountTree, states []Pattern) (hits, total uint64, preds []bool) {
	inSet := func(q Pattern) bool {
		for _, s := range states {
			if s == q {
				return true
			}
		}
		return false
	}
	preds = make([]bool, len(states))
	for i, p := range states {
		eff := t.Count(p)
		for _, d := range [2]bool{false, true} {
			ext := p.Extend(d)
			if int(ext.Len) <= t.K && inSet(ext) {
				c := t.Count(ext)
				eff.Taken -= c.Taken
				eff.NotTaken -= c.NotTaken
			}
		}
		preds[i] = eff.MajorityTaken()
		hits += eff.Hits()
		total += eff.Total()
	}
	return hits, total, preds
}

// MaxSearchStates bounds the machine size taken from user input (kralld
// requests, krallcheck -states): the paper's and Table 5's largest size.
// The exhaustive search's set count grows about 3.7× per added state.
const MaxSearchStates = 10

// feasibleStates caps a machine size at the largest suffix-closed set over
// patterns of at most k bits: the full trie of depth k, 2^(k+1)−2 states.
func feasibleStates(k, n int) int {
	if k < 30 && n > 1<<(k+1)-2 {
		return 1<<(k+1) - 2
	}
	return n
}

var (
	base1 = []Pattern{{Bits: 0, Len: 1}, {Bits: 1, Len: 1}}
	base2 = []Pattern{{Bits: 0, Len: 2}, {Bits: 1, Len: 2}, {Bits: 2, Len: 2}, {Bits: 3, Len: 2}}
)

// loopSearch walks every suffix-closed state set over a base, up to nmax
// states, in one depth-first pass, and reports each set it reaches to visit
// with the set's longest-match hit count. Sets grow by ordered frontier
// expansion, so each set is reached exactly once. A set of m states over
// base1 holds no pattern longer than m−1 (m−2 over base2), so the sets of m
// states, and their pre-order, are the same for every nmax ≥ m.
//
// Scoring is incremental: adding pattern c under its parent p changes only
// eff(p), which loses cnt(c), and adds eff(c) = cnt(c). The hit count moves
// by the difference and is restored on backtrack. The set, its eff values
// and the frontier live in buffers sized once, so no node allocates.
type loopSearch struct {
	t      *CountTree
	nmax   int
	maxLen uint8
	visit  func(set []Pattern, hits uint64)
	set    []Pattern
	eff    []profile.Pair // eff[i] is set[i]'s effective count
	hits   uint64
	// front is a stack of frontier segments: the frontier at a node is
	// front[lo:hi]; a child's frontier is front[i+1:hi] plus the added
	// pattern's two extensions, written at front[hi:hi+2]. Each state on
	// the path pushes at most two entries, so 2·nmax entries suffice.
	front []frontEntry
}

type frontEntry struct {
	p      Pattern
	parent int // index of p.Suffix(p.Len-1) in set
}

func newLoopSearch(t *CountTree, nmax int, visit func(set []Pattern, hits uint64)) *loopSearch {
	return &loopSearch{
		t:      t,
		nmax:   nmax,
		maxLen: uint8(min(nmax-1, t.K)),
		visit:  visit,
		set:    make([]Pattern, 0, nmax),
		eff:    make([]profile.Pair, 0, nmax),
		front:  make([]frontEntry, 2*nmax),
	}
}

// searchLoopSets runs the search over base1 and then, when a 4-state set
// fits, over base2.
func searchLoopSets(t *CountTree, nmax int, visit func(set []Pattern, hits uint64)) {
	s := newLoopSearch(t, nmax, visit)
	s.run(base1)
	if nmax >= 4 && s.maxLen >= 2 {
		s.run(base2)
	}
}

func (s *loopSearch) run(base []Pattern) {
	if len(base) > s.nmax {
		return
	}
	s.set, s.eff, s.hits = s.set[:0], s.eff[:0], 0
	hi := 0
	for i, p := range base {
		c := s.t.Count(p)
		s.set = append(s.set, p)
		s.eff = append(s.eff, c)
		s.hits += c.Hits()
		hi = s.push(p, i, hi)
	}
	s.visit(s.set, s.hits)
	s.grow(0, hi)
}

// push writes the extensions of set[idx] = p at front[hi:hi+2] when p may
// still grow, and returns the new top of the frontier.
func (s *loopSearch) push(p Pattern, idx, hi int) int {
	if p.Len >= s.maxLen {
		return hi
	}
	s.front[hi] = frontEntry{p.Extend(false), idx}
	s.front[hi+1] = frontEntry{p.Extend(true), idx}
	return hi + 2
}

func (s *loopSearch) grow(lo, hi int) {
	if len(s.set) == s.nmax {
		return
	}
	for i := lo; i < hi; i++ {
		e := s.front[i]
		c := s.t.Count(e.p)
		par := s.eff[e.parent]
		shrunk := profile.Pair{Taken: par.Taken - c.Taken, NotTaken: par.NotTaken - c.NotTaken}
		saved := s.hits
		s.hits = s.hits - par.Hits() + shrunk.Hits() + c.Hits()
		s.eff[e.parent] = shrunk
		idx := len(s.set)
		s.set = append(s.set, e.p)
		s.eff = append(s.eff, c)
		s.visit(s.set, s.hits)
		s.grow(i+1, s.push(e.p, idx, hi))
		s.set, s.eff = s.set[:idx], s.eff[:idx]
		s.eff[e.parent] = par
		s.hits = saved
	}
}

// bestLoopSets returns, for every size n ≤ nmax, the state set with the most
// hits: the first strictly better set in search order, base1 before base2.
// Sizes past the largest feasible one repeat its set.
func bestLoopSets(t *CountTree, nmax int) [][]Pattern {
	best := make([][]Pattern, nmax+1)
	bestHits := make([]uint64, nmax+1)
	searchLoopSets(t, feasibleStates(t.K, nmax), func(set []Pattern, hits uint64) {
		m := len(set)
		if best[m] == nil || hits > bestHits[m] {
			best[m] = append(best[m][:0], set...)
			bestHits[m] = hits
		}
	})
	for n := 3; n <= nmax; n++ {
		if best[n] == nil {
			best[n] = best[n-1]
		}
	}
	return best
}

// newLoopMachine builds the machine for a state set, scored by
// longest-match counting.
func newLoopMachine(t *CountTree, set []Pattern) *LoopMachine {
	states := append([]Pattern(nil), set...)
	sortPatterns(states)
	hits, total, preds := scoreStates(t, states)
	return &LoopMachine{States: states, PredTaken: preds, Init: initialState(t, states), Hits: hits, Total: total}
}

// BestLoopMachine searches exhaustively for the n-state machine with the
// most correct predictions for one branch, given its k-bit pattern table
// (tab may be nil for a never-profiled branch, in which case the machine
// degenerates to catch-all states with zero counts). Machines are built
// over two bases, both drawn in the paper: the two 1-bit catch-all states
// (Figure 2) and, when n ≥ 4, the four 2-bit catch-all states (Figure 3);
// each base grows by suffix-closed extension up to history length
// min(n-1, k). Ties go to the first set found, base1 before base2.
//
// n must be at least 2. A 2-state machine is exactly the 1-bit history
// scheme. When no suffix-closed set of n states exists (n > 2^(k+1)−2),
// the largest machine, the full trie of k-bit patterns, is returned.
func BestLoopMachine(tab []profile.Pair, k, n int) *LoopMachine {
	checkLoopArgs(k, n)
	t := NewCountTree(tab, k)
	return newLoopMachine(t, bestLoopSets(t, n)[n])
}

// BestLoopMachines runs the BestLoopMachine search once for every size up
// to nmax: element n of the result is BestLoopMachine(tab, k, n) for
// 2 ≤ n ≤ nmax; elements 0 and 1 are nil.
func BestLoopMachines(tab []profile.Pair, k, nmax int) []*LoopMachine {
	checkLoopArgs(k, nmax)
	t := NewCountTree(tab, k)
	sets := bestLoopSets(t, nmax)
	out := make([]*LoopMachine, nmax+1)
	for n := 2; n <= nmax; n++ {
		out[n] = newLoopMachine(t, sets[n])
	}
	return out
}

func checkLoopArgs(k, n int) {
	if n < 2 {
		panic(fmt.Sprintf("statemachine: loop machine needs >= 2 states, got %d", n))
	}
	if k < 1 {
		panic("statemachine: history length must be >= 1")
	}
}

// delta builds the dense transition table of the machine.
func (m *LoopMachine) delta() [][2]int {
	d := make([][2]int, len(m.States))
	for i := range m.States {
		d[i][0] = m.Next(i, false)
		d[i][1] = m.Next(i, true)
	}
	return d
}

// Rescore replays the branch's full outcome stream through the machine
// with exact automaton semantics, recomputing the per-state majority
// predictions, Hits, and Total from what the machine really sees. This is
// stricter than the longest-match table counting: a replicated machine only
// knows as much history as its current state label, so it can idle in a
// short state while a longer pattern matches the true history. The paper's
// counting ignores that effect; measured results use these semantics.
// BestLoopMachineExact scores its candidates the same way, all in one pass
// (rescoreRuns); Rescore is the bit-at-a-time form, kept as its reference.
func (m *LoopMachine) Rescore(st *profile.Stream) {
	d := m.delta()
	counts := make([]profile.Pair, len(m.States))
	s := m.Init
	for i, n := 0, st.Len(); i < n; i++ {
		o := st.Get(i)
		counts[s].Add(o)
		if o {
			s = d[s][1]
		} else {
			s = d[s][0]
		}
	}
	m.Hits, m.Total = 0, 0
	for i, c := range counts {
		m.PredTaken[i] = c.MajorityTaken()
		m.Hits += c.Hits()
		m.Total += c.Total()
	}
}

// BestLoopMachineExact searches like BestLoopMachine but scores the top
// candidate sets by exact stream replay (Rescore semantics) and returns the
// machine that is actually best when realised as replicated code. The
// table-based score is used as the search heuristic; the topK (here 12)
// candidates, plus the canonical sets, are replayed together in one pass
// over the stream (rescoreRuns). A later candidate must score strictly more
// hits to win. Like BestLoopMachine, it returns the largest machine when no
// n-state set exists.
func BestLoopMachineExact(tab []profile.Pair, k, n int, st *profile.Stream) *LoopMachine {
	if st == nil || st.Len() == 0 {
		return BestLoopMachine(tab, k, n)
	}
	checkLoopArgs(k, n)
	t := NewCountTree(tab, k)
	sets := replayCandidates(t, feasibleStates(k, n))
	ms := make([]*LoopMachine, len(sets))
	for i, states := range sets {
		ms[i] = newLoopMachine(t, states)
	}
	rescoreRuns(ms, st)
	var best *LoopMachine
	for _, m := range ms {
		if best == nil || m.Hits > best.Hits {
			best = m
		}
	}
	return best
}

// rescoreRuns is Rescore for every machine in ms, in one pass over the
// stream. It reads the stream a run of equal outcomes at a time. Within a
// run of outcome o, each machine steps one outcome at a time until it
// reaches a state whose o-edge loops back to itself; every outcome left in
// the run then lands in that state, so they are added there at once. A
// loop branch's stream is mostly long taken runs that a chain machine
// absorbs in its last state, so most runs cost O(1) per machine.
func rescoreRuns(ms []*LoopMachine, st *profile.Stream) {
	type walk struct {
		next   [][2]int
		counts []profile.Pair
		s      int
	}
	ws := make([]walk, len(ms))
	for i, m := range ms {
		ws[i] = walk{next: m.delta(), counts: make([]profile.Pair, len(m.States)), s: m.Init}
	}
	for i, n := 0, 0; i < st.Len(); i += n {
		var taken bool
		taken, n = st.RunAt(i)
		o := 0
		if taken {
			o = 1
		}
		for wi := range ws {
			w := &ws[wi]
			s, left := w.s, n
			for ; left > 0 && w.next[s][o] != s; left-- {
				w.counts[s].Add(taken)
				s = w.next[s][o]
			}
			if taken {
				w.counts[s].Taken += uint64(left)
			} else {
				w.counts[s].NotTaken += uint64(left)
			}
			w.s = s
		}
	}
	for i, m := range ms {
		m.Hits, m.Total = 0, 0
		for j, c := range ws[i].counts {
			m.PredTaken[j] = c.MajorityTaken()
			m.Hits += c.Hits()
			m.Total += c.Total()
		}
	}
}

// replayCandidates returns the state sets BestLoopMachineExact replays for
// n states: the topK sets by table score, best first (a later set must
// score strictly higher to pass an earlier one), then the canonical sets.
func replayCandidates(t *CountTree, n int) [][]Pattern {
	const topK = 12
	type cand struct {
		hits   uint64
		states []Pattern
	}
	var top []cand
	searchLoopSets(t, n, func(states []Pattern, hits uint64) {
		if len(states) != n || len(top) == topK && hits <= top[topK-1].hits {
			return
		}
		pos := len(top)
		for pos > 0 && top[pos-1].hits < hits {
			pos--
		}
		top = append(top, cand{})
		copy(top[pos+1:], top[pos:])
		top[pos] = cand{hits: hits, states: append([]Pattern(nil), states...)}
		if len(top) > topK {
			top = top[:topK]
		}
	})
	out := make([][]Pattern, 0, len(top)+3)
	for _, c := range top {
		out = append(out, c.states)
	}
	// The table score is an optimistic proxy; the realizable optimum is
	// often a chain machine (Figures 2 and 5) that the proxy under-ranks,
	// so the canonical chains are always replayed too.
	return append(out, canonicalSets(n, min(n-1, t.K))...)
}

// canonicalSets returns replay-friendly standard state sets of exactly n
// states: the run-length chains of both polarities (the paper's Figure 2
// and Figure 5 shapes) and, when n allows, the complete suffix tree over
// two levels.
func canonicalSets(n, maxLen int) [][]Pattern {
	var out [][]Pattern
	// Run chains: {0,1,01,011,...} — each longer state remembers one more
	// trailing "stay" outcome. Build both polarities.
	for _, stay := range []uint32{1, 0} {
		states := []Pattern{{Bits: 0, Len: 1}, {Bits: 1, Len: 1}}
		// pattern: (1-stay) followed by k stays, oldest first:
		// bits low k = stay value, bit k = 1-stay.
		for k := 1; len(states) < n && k < maxLen; k++ {
			var p Pattern
			p.Len = uint8(k + 1)
			for b := 0; b < k; b++ {
				p.Bits |= stay << uint(b)
			}
			p.Bits |= (1 - stay) << uint(k)
			states = append(states, p)
		}
		if len(states) == n {
			cp := make([]Pattern, n)
			copy(cp, states)
			sortPatterns(cp)
			out = append(out, cp)
		}
	}
	// Complete two-level tree {0,1,00,01,10,11} when it fits exactly.
	if n == 6 && maxLen >= 2 {
		out = append(out, []Pattern{
			{Bits: 0, Len: 1}, {Bits: 1, Len: 1},
			{Bits: 0, Len: 2}, {Bits: 1, Len: 2},
			{Bits: 2, Len: 2}, {Bits: 3, Len: 2},
		})
	}
	return out
}

// initialState picks the heaviest base (shortest-length) state as the
// entry state of the machine.
func initialState(t *CountTree, states []Pattern) int {
	baseLen := states[0].Len
	for _, p := range states {
		if p.Len < baseLen {
			baseLen = p.Len
		}
	}
	best, bestCnt := -1, uint64(0)
	for i, p := range states {
		if p.Len != baseLen {
			continue
		}
		c := t.Count(p).Total()
		if best == -1 || c > bestCnt {
			best, bestCnt = i, c
		}
	}
	return best
}

func sortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Len != ps[j].Len {
			return ps[i].Len < ps[j].Len
		}
		return ps[i].Bits < ps[j].Bits
	})
}
