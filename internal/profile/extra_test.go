package profile

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestPairAndKeyStrings(t *testing.T) {
	p := Pair{Taken: 3, NotTaken: 1}
	if p.String() != "3/1" {
		t.Fatalf("pair string %q", p.String())
	}
	var k PathKey
	k = k<<16 | PathKey(pathElem(2, true))
	k = k<<16 | PathKey(pathElem(5, false))
	s := k.String()
	if !strings.Contains(s, "b5:N") || !strings.Contains(s, "b2:T") {
		t.Fatalf("path key string %q", s)
	}
}

func TestNumSitesAccessors(t *testing.T) {
	if NewLocalHistory(7, 2).NumSites() != 7 {
		t.Fatal("local NumSites")
	}
	if NewGlobalHistory(5, 2).NumSites() != 5 {
		t.Fatal("global NumSites")
	}
	if NewPathHistory(3, 2).NumSites() != 3 {
		t.Fatal("path NumSites")
	}
	if NewStreams(4).NumSites() != 4 {
		t.Fatal("streams NumSites")
	}
}

func TestStreams(t *testing.T) {
	st := NewStreams(2)
	outcomes := []bool{true, false, false, true, true}
	for _, o := range outcomes {
		st.RecordBranch(1, o)
	}
	st.RecordBranch(0, true)
	if st.Total() != 6 {
		t.Fatalf("total = %d", st.Total())
	}
	s1 := st.Site(1)
	if s1.Len() != len(outcomes) {
		t.Fatalf("len = %d", s1.Len())
	}
	for i, o := range outcomes {
		if s1.Get(i) != o {
			t.Fatalf("bit %d = %v, want %v", i, s1.Get(i), o)
		}
	}
	if st.Site(0).Len() != 1 || !st.Site(0).Get(0) {
		t.Fatal("site 0 stream wrong")
	}
}

func TestStreamCrossesWordBoundary(t *testing.T) {
	var s Stream
	for i := 0; i < 200; i++ {
		s.Append(i%3 == 0)
	}
	if s.Len() != 200 {
		t.Fatalf("len = %d", s.Len())
	}
	for i := 0; i < 200; i++ {
		if s.Get(i) != (i%3 == 0) {
			t.Fatalf("bit %d wrong", i)
		}
	}
}

func TestGlobalProjectAndFillRates(t *testing.T) {
	h := NewGlobalHistory(2, 3)
	t0, t1 := term(0), term(1)
	seq := []bool{true, false, true, true, false, true, false, false, true, true}
	for _, o := range seq {
		h.RecordBranch(t0.Site, o)
		h.RecordBranch(t1.Site, !o)
	}
	proj := h.Project(0, 2)
	var tot uint64
	for _, p := range proj {
		tot += p.Total()
	}
	m, total := h.SiteMisses(0)
	if tot != total {
		t.Fatalf("projection total %d != site total %d", tot, total)
	}
	if m > total {
		t.Fatal("misses > total")
	}
	frs := h.FillRates()
	if len(frs) != 3 {
		t.Fatalf("fill rates = %d", len(frs))
	}
	for i := 1; i < len(frs); i++ {
		if frs[i].Rate() > frs[i-1].Rate()+1e-9 {
			t.Fatal("global fill rate must not grow with history length")
		}
	}
	var zero FillRate
	if zero.Rate() != 0 {
		t.Fatal("empty fill rate must be 0")
	}
}

func TestHistoryValidationPanics(t *testing.T) {
	mustPanic := func(fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("want panic")
			}
		}()
		fn()
	}
	mustPanic(func() { NewGlobalHistory(1, 0) })
	mustPanic(func() { NewGlobalHistory(1, 17) })
	mustPanic(func() { NewPathHistory(1, 0) })
	mustPanic(func() { NewPathHistory(1, 5) })
	mustPanic(func() { NewLocalHistory(1, 17) })
	h := NewLocalHistory(1, 3)
	feed(h, 0, "11111")
	mustPanic(func() { h.Project(0, 4) })
	mustPanic(func() { h.Project(0, 0) })
	ph := NewPathHistory(1, 2)
	ph.RecordBranch(0, true)
	mustPanic(func() { ph.ProjectPaths(0, 3) })
}

func TestPathElemOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for oversized site id")
		}
	}()
	h := NewPathHistory(1, 2)
	h.RecordBranch(1<<15, true)
}

// TestStreamRunAt walks streams run by run and checks every run against
// the bit-at-a-time reading: maximal, non-empty, and covering the stream
// exactly, including runs that span words or end on a word boundary.
func TestStreamRunAt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var s Stream
		var want []int
		size := 1 + rng.Intn(700)
		for o := rng.Intn(2) == 0; s.Len() < size; o = !o {
			n := 1 + rng.Intn(1+[]int{2, 70, 200}[rng.Intn(3)])
			for i := 0; i < n; i++ {
				s.Append(o)
			}
			want = append(want, n)
		}
		var got []int
		for i, n := 0, 0; i < s.Len(); i += n {
			var taken bool
			taken, n = s.RunAt(i)
			if taken != s.Get(i) || n < 1 {
				t.Fatalf("trial %d: run at %d = (%v, %d)", trial, i, taken, n)
			}
			got = append(got, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: runs %v, want %v", trial, got, want)
		}
	}
}
