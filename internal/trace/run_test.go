package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// TestRunCollectorsMatchEventAtATime drives every trace-package sink both
// event-at-a-time (behind PerEvent) and through the split run-aware replay
// and requires identical final state — including the Writer, whose two
// paths must produce byte-identical wire encodings.
func TestRunCollectorsMatchEventAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 17, 5000} {
		events := mixedEvents(n, rng.Int63())
		s := recordSlab(events)

		var evBuf, runBuf bytes.Buffer
		evW, err := NewWriter(&evBuf)
		if err != nil {
			t.Fatal(err)
		}
		runW, err := NewWriter(&runBuf)
		if err != nil {
			t.Fatal(err)
		}
		ev := []Sink{NewCounts(40), &eventList{}, &MaxSite{}, NewTargetCounts(0), NewSlab(0), evW}
		run := []Sink{NewCounts(40), &eventList{}, &MaxSite{}, NewTargetCounts(0), NewSlab(0), runW}
		for i := range ev {
			s.ReplayInto(PerEvent{ev[i]})
			s.ReplayInto(run[i])
		}
		if err := evW.Close(); err != nil {
			t.Fatal(err)
		}
		if err := runW.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range ev {
			if !reflect.DeepEqual(ev[i], run[i]) {
				t.Fatalf("n=%d: %T diverges between per-event and run-aware replay", n, ev[i])
			}
		}
		if !bytes.Equal(evBuf.Bytes(), runBuf.Bytes()) {
			t.Fatalf("n=%d: writer encodings diverge (%d vs %d bytes)", n, evBuf.Len(), runBuf.Len())
		}
	}
}

// TestMultiFusedIntoSinglePass: replaying into a Multi (even nested) must
// leave every member exactly as a direct replay into it would.
func TestMultiFusedIntoSinglePass(t *testing.T) {
	events := mixedEvents(4000, 23)
	s := recordSlab(events)

	viaMulti := []Sink{NewCounts(40), &eventList{}, NewTargetCounts(0)}
	direct := []Sink{NewCounts(40), &eventList{}, NewTargetCounts(0)}
	s.ReplayInto(Multi{viaMulti[0], Multi{viaMulti[1], viaMulti[2]}})
	for _, d := range direct {
		s.ReplayInto(d)
	}
	for i := range direct {
		if !reflect.DeepEqual(viaMulti[i], direct[i]) {
			t.Fatalf("%T diverges through Multi", direct[i])
		}
	}
	if got := *direct[1].(*eventList); !reflect.DeepEqual([]Event(got), events) {
		t.Fatal("direct replay lost event order or kinds")
	}
}

// TestMaxSite covers the site-scan sink on all three entry points.
func TestMaxSite(t *testing.T) {
	var m MaxSite
	if m.N != 0 {
		t.Fatal("fresh MaxSite not zero")
	}
	m.RecordBranch(3, true)
	m.RecordRun(7, false, 100)
	m.RecordBranch(5, true)
	if m.N != 8 {
		t.Fatalf("MaxSite = %d, want 8", m.N)
	}
	m.RecordSwitch(11, 2, 1)
	if m.N != 12 {
		t.Fatalf("MaxSite after a switch = %d, want 12", m.N)
	}
}
