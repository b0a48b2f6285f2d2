package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// genEvents produces a stream with long runs (loop-shaped) and random
// jumps, the same shape the interpreter records.
func genEvents(rng *rand.Rand, n int) []Event {
	out := make([]Event, 0, n)
	for len(out) < n {
		site := int32(rng.Intn(40))
		taken := rng.Intn(2) == 1
		run := 1
		if rng.Intn(3) == 0 {
			run = rng.Intn(50) + 1
		}
		for i := 0; i < run && len(out) < n; i++ {
			out = append(out, Event{Site: site, Taken: taken})
		}
	}
	return out
}

// recordSlab records events, branch and switch alike, into a sealed slab.
func recordSlab(events []Event) *Slab {
	s := NewSlab(len(events))
	for _, ev := range events {
		if ev.Switch {
			s.RecordSwitch(ev.Site, ev.Outcome, 1)
		} else {
			s.RecordBranch(ev.Site, ev.Taken)
		}
	}
	s.Seal()
	return s
}

func TestSlabRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Sizes chosen to hit empty, single-event, run-boundary, and
	// budget-truncated shapes (a budget stop just seals mid-stream, so any
	// prefix length must round-trip).
	for _, n := range []int{0, 1, 2, 3, 100, 4095, 4096, 4097, 20000} {
		events := genEvents(rng, n)
		s := recordSlab(events)
		if s.Len() != uint64(n) {
			t.Fatalf("n=%d: Len=%d", n, s.Len())
		}
		got := s.Events()
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d events", n, len(got))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("n=%d: event %d = %+v, want %+v", n, i, got[i], events[i])
			}
		}
	}
}

// TestSlabReplayRunsMatchesReplay pins the split dispatch: the runs a
// replay delivers expand to exactly the recorded events, and real runs
// arrive as RecordRun calls rather than one call per event.
func TestSlabReplayRunsMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	events := genEvents(rng, 5000)
	s := recordSlab(events)
	var rc runCounter
	s.ReplayInto(&rc)
	if !reflect.DeepEqual([]Event(rc.events), events) {
		t.Fatalf("runs expanded to %d events, want the %d recorded", len(rc.events), len(events))
	}
	if rc.runs == 0 || rc.calls >= len(events) {
		t.Fatalf("%d calls (%d runs) for %d events: runs not delivered whole", rc.calls, rc.runs, len(events))
	}
}

// runCounter records a replay's events and how they arrived.
type runCounter struct {
	events      eventList
	calls, runs int
}

func (r *runCounter) RecordBranch(site int32, taken bool) {
	r.calls++
	r.events.RecordBranch(site, taken)
}

func (r *runCounter) RecordRun(site int32, taken bool, n uint64) {
	r.calls++
	r.runs++
	r.events.RecordRun(site, taken, n)
}

func (r *runCounter) RecordSwitch(site, outcome int32, n uint64) {
	r.calls++
	r.events.RecordSwitch(site, outcome, n)
}

func TestSlabWriteToReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 777, 10000} {
		events := genEvents(rng, n)
		s := recordSlab(events)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := readAll(buf.Bytes())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d events", n, len(got))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("n=%d: event %d = %+v, want %+v", n, i, got[i], events[i])
			}
		}
	}
}

func TestSlabMatchesWriterEncoding(t *testing.T) {
	// The slab uses the Writer's exact wire encoding: same events, same
	// bytes.
	rng := rand.New(rand.NewSource(10))
	events := genEvents(rng, 3000)
	s := recordSlab(events)
	var slabBuf bytes.Buffer
	if _, err := s.WriteTo(&slabBuf); err != nil {
		t.Fatal(err)
	}
	var writerBuf bytes.Buffer
	w, err := NewWriter(&writerBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		w.RecordBranch(ev.Site, ev.Taken)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slabBuf.Bytes(), writerBuf.Bytes()) {
		t.Fatalf("slab encoding (%d bytes) differs from Writer encoding (%d bytes)",
			slabBuf.Len(), writerBuf.Len())
	}
}

func TestSlabReplayBeforeSealPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s := NewSlab(0)
	s.RecordBranch(0, true)
	s.ReplayInto(NewCounts(1))
}

func TestSlabReplayInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	events := genEvents(rng, 2000)
	s := recordSlab(events)
	// The *Counts loop and the general loop, in one Multi and alone, must
	// both see the full ordered stream.
	counts, alone := NewCounts(40), NewCounts(40)
	var list eventList
	s.ReplayInto(Multi{counts, &list})
	s.ReplayInto(alone)
	want := NewCounts(40)
	for _, ev := range events {
		want.RecordBranch(ev.Site, ev.Taken)
	}
	if !reflect.DeepEqual(counts, want) || !reflect.DeepEqual(alone, want) {
		t.Fatal("replayed counts differ from the recorded events")
	}
	if !reflect.DeepEqual([]Event(list), events) {
		t.Fatalf("event list saw %d events, want %d in order", len(list), len(events))
	}
}

// TestMultiMatchesSeparateSinks pins live fan-out: driving a Multi event by
// event and run by run leaves each member exactly as driving it alone.
func TestMultiMatchesSeparateSinks(t *testing.T) {
	events := mixedEvents(20_000, 12)
	direct := []Sink{NewCounts(8), &eventList{}, NewTargetCounts(0)}
	fanned := []Sink{NewCounts(8), &eventList{}, NewTargetCounts(0)}
	multi := Multi(fanned)
	for i, ev := range events {
		for _, sink := range append([]Sink{multi}, direct...) {
			switch {
			case ev.Switch:
				sink.RecordSwitch(ev.Site, ev.Outcome, 1)
			case i%2 == 0:
				sink.RecordBranch(ev.Site, ev.Taken)
			default:
				sink.RecordRun(ev.Site, ev.Taken, 1)
			}
		}
	}
	for i := range direct {
		if !reflect.DeepEqual(direct[i], fanned[i]) {
			t.Fatalf("%T diverges through Multi", direct[i])
		}
	}
}
