package statemachine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/profile"
)

// The reference search below is the earlier implementation of the loop
// machine search: enumerate the suffix-closed sets of exactly n states and
// rescore each from scratch. The incremental one-pass search must agree
// with it set for set, ties included.

func refEnumerateSuffixClosed(base []Pattern, n, maxLen int, consider func([]Pattern)) {
	if len(base) > n {
		return
	}
	set := make([]Pattern, len(base), n)
	copy(set, base)
	var frontier []Pattern
	for _, p := range base {
		if int(p.Len) < maxLen {
			frontier = append(frontier, p.Extend(false), p.Extend(true))
		}
	}
	var rec func(frontier []Pattern, remaining int)
	rec = func(frontier []Pattern, remaining int) {
		if remaining == 0 {
			consider(set)
			return
		}
		for i, cand := range frontier {
			set = append(set, cand)
			next := make([]Pattern, 0, len(frontier)-i-1+2)
			next = append(next, frontier[i+1:]...)
			if int(cand.Len) < maxLen {
				next = append(next, cand.Extend(false), cand.Extend(true))
			}
			rec(next, remaining-1)
			set = set[:len(set)-1]
		}
	}
	rec(frontier, n-len(base))
}

// refEnumerate runs the reference enumeration over both bases.
func refEnumerate(t *CountTree, n int, consider func([]Pattern)) {
	maxLen := min(n-1, t.K)
	refEnumerateSuffixClosed(base1, n, maxLen, consider)
	if n >= 4 && maxLen >= 2 && t.K >= 2 {
		refEnumerateSuffixClosed(base2, n, maxLen, consider)
	}
}

func refBestLoopMachine(tab []profile.Pair, k, n int) *LoopMachine {
	t := NewCountTree(tab, k)
	var best *LoopMachine
	refEnumerate(t, n, func(states []Pattern) {
		hits, _, _ := scoreStates(t, states)
		if best == nil || hits > best.Hits {
			cp := append([]Pattern(nil), states...)
			sortPatterns(cp)
			h2, t2, p2 := scoreStates(t, cp)
			best = &LoopMachine{States: cp, PredTaken: p2, Hits: h2, Total: t2}
		}
	})
	best.Init = initialState(t, best.States)
	return best
}

func refReplayCandidates(t *CountTree, n int) [][]Pattern {
	const topK = 12
	type cand struct {
		hits   uint64
		states []Pattern
	}
	var top []cand
	refEnumerate(t, n, func(states []Pattern) {
		hits, _, _ := scoreStates(t, states)
		if len(top) == topK && hits <= top[topK-1].hits {
			return
		}
		cp := append([]Pattern(nil), states...)
		sortPatterns(cp)
		pos := len(top)
		for pos > 0 && top[pos-1].hits < hits {
			pos--
		}
		top = append(top, cand{})
		copy(top[pos+1:], top[pos:])
		top[pos] = cand{hits: hits, states: cp}
		if len(top) > topK {
			top = top[:topK]
		}
	})
	var out [][]Pattern
	for _, c := range top {
		out = append(out, c.states)
	}
	return append(out, canonicalSets(n, min(n-1, t.K))...)
}

// randomTable draws a k-bit pattern table with about a quarter of its
// entries empty. Small counts make ties common, which exercises
// tie-breaking.
func randomTable(rng *rand.Rand, k int) []profile.Pair {
	tab := make([]profile.Pair, 1<<uint(k))
	hi := 1 + rng.Intn(40)
	for i := range tab {
		if rng.Intn(4) == 0 {
			continue
		}
		tab[i] = profile.Pair{Taken: uint64(rng.Intn(hi)), NotTaken: uint64(rng.Intn(hi))}
	}
	return tab
}

// streamTable runs an LCG-driven outcome stream through a 9-bit local
// history and returns its table and stream.
func streamTable(seed uint32, events int) ([]profile.Pair, *profile.Stream) {
	lh := profile.NewLocalHistory(1, 9)
	st := profile.NewStreams(1)
	tm := term(0)
	x := seed
	period := 2 + int(seed%7)
	for i := 0; i < events; i++ {
		x = x*1664525 + 1013904223
		o := (i%period != 0) != (x&0x70000 == 0)
		lh.RecordBranch(tm.Site, o)
		st.RecordBranch(tm.Site, o)
	}
	return lh.Table(0), st.Site(0)
}

func TestBestLoopMachinesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tabs [][]profile.Pair
	for i := 0; i < 6; i++ {
		tabs = append(tabs, randomTable(rng, 9))
	}
	for seed := uint32(1); seed <= 4; seed++ {
		tab, _ := streamTable(seed, 3000)
		tabs = append(tabs, tab)
	}
	for i, tab := range tabs {
		all := BestLoopMachines(tab, 9, 10)
		for n := 2; n <= 10; n++ {
			want := refBestLoopMachine(tab, 9, n)
			if !reflect.DeepEqual(all[n], want) {
				t.Fatalf("table %d n=%d: got %v, reference %v", i, n, all[n], want)
			}
			if one := BestLoopMachine(tab, 9, n); !reflect.DeepEqual(one, want) {
				t.Fatalf("table %d n=%d: BestLoopMachine %v, reference %v", i, n, one, want)
			}
		}
	}
}

func TestReplayCandidatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 6; i++ {
		tree := NewCountTree(randomTable(rng, 9), 9)
		for n := 2; n <= 8; n++ {
			got, want := replayCandidates(tree, n), refReplayCandidates(tree, n)
			for _, c := range got {
				sortPatterns(c)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("table %d n=%d: candidates\n%v\nreference\n%v", i, n, got, want)
			}
		}
	}
	// End to end on real streams: the replayed winner must match too.
	for seed := uint32(1); seed <= 4; seed++ {
		tab, st := streamTable(seed, 3000)
		tree := NewCountTree(tab, 9)
		for _, n := range []int{2, 4, 5, 7} {
			var want *LoopMachine
			for _, states := range refReplayCandidates(tree, n) {
				m := newLoopMachine(tree, states)
				m.Rescore(st)
				if want == nil || m.Hits > want.Hits {
					want = m
				}
			}
			if got := BestLoopMachineExact(tab, 9, n, st); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d n=%d: exact %v, reference %v", seed, n, got, want)
			}
		}
	}
}

// bruteBestHits scores every set of n patterns of length ≤ k that is a
// complete, suffix-closed state set — all 2^L patterns of its shortest
// length L ∈ {1,2}, and every longer pattern's one-shorter suffix — and
// returns the best hit count, or false when no such set exists.
func bruteBestHits(tree *CountTree, n int) (uint64, bool) {
	var all []Pattern
	for l := 1; l <= tree.K; l++ {
		for b := 0; b < 1<<uint(l); b++ {
			all = append(all, Pattern{Bits: uint32(b), Len: uint8(l)})
		}
	}
	in := map[Pattern]bool{}
	valid := func(set []Pattern) bool {
		short := set[0].Len
		for _, p := range set {
			short = min(short, p.Len)
		}
		if short > 2 {
			return false
		}
		for _, p := range set {
			if p.Len > short && !in[p.Suffix(p.Len-1)] {
				return false
			}
		}
		for b := 0; b < 1<<short; b++ {
			if !in[Pattern{Bits: uint32(b), Len: short}] {
				return false
			}
		}
		return true
	}
	var best uint64
	found := false
	set := make([]Pattern, 0, n)
	var rec func(from int)
	rec = func(from int) {
		if len(set) == n {
			if valid(set) {
				h, _, _ := scoreStates(tree, set)
				if !found || h > best {
					best, found = h, true
				}
			}
			return
		}
		for i := from; i <= len(all)-(n-len(set)); i++ {
			set = append(set, all[i])
			in[all[i]] = true
			rec(i + 1)
			delete(in, all[i])
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return best, found
}

func TestBestLoopMachinesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 1; k <= 4; k++ {
		for trial := 0; trial < 3; trial++ {
			tab := randomTable(rng, k)
			tree := NewCountTree(tab, k)
			ms := BestLoopMachines(tab, k, 6)
			largest := 0
			for n := 2; n <= 6; n++ {
				want, ok := bruteBestHits(tree, n)
				if !ok {
					// No n-state set: the largest feasible machine stands in.
					if ms[n].NumStates() != largest || !reflect.DeepEqual(ms[n], ms[largest]) {
						t.Fatalf("k=%d n=%d: infeasible size gave %v, want the %d-state machine", k, n, ms[n], largest)
					}
					continue
				}
				largest = n
				if ms[n].NumStates() != n || ms[n].Hits != want {
					t.Fatalf("k=%d n=%d: %d states, %d hits; brute force %d hits", k, n, ms[n].NumStates(), ms[n].Hits, want)
				}
			}
		}
	}
}

func TestBestLoopMachineInfeasibleSize(t *testing.T) {
	// k=1 admits only {0,1}; k=2 at most the full 2-level trie of 6
	// states. Larger requests return the largest machine instead of
	// panicking, in both scoring modes.
	for _, c := range []struct{ k, n, want int }{{1, 3, 2}, {1, 10, 2}, {2, 7, 6}, {2, 10, 6}} {
		outcomes := repeat("1101", 300)
		tab := localTable(outcomes, c.k)
		st := profile.NewStreams(1)
		for _, ch := range outcomes {
			st.RecordBranch(0, ch == '1')
		}
		m := BestLoopMachine(tab, c.k, c.n)
		if m.NumStates() != c.want {
			t.Fatalf("k=%d n=%d: %d states, want %d", c.k, c.n, m.NumStates(), c.want)
		}
		if want := BestLoopMachine(tab, c.k, c.want); !reflect.DeepEqual(m, want) {
			t.Fatalf("k=%d n=%d: %v, want %v", c.k, c.n, m, want)
		}
		if ex := BestLoopMachineExact(tab, c.k, c.n, st.Site(0)); ex == nil || ex.NumStates() != c.want {
			t.Fatalf("k=%d n=%d: exact machine %v, want %d states", c.k, c.n, ex, c.want)
		}
	}
}
