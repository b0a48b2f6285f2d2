package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func term(site int32) *ir.Term {
	return &ir.Term{Op: ir.TermBr, Site: site, Orig: site}
}

// readAll decodes a BLTRACE1 stream under DefaultLimits.
func readAll(data []byte) ([]Event, error) {
	s, err := ReadSlab(data, DefaultLimits())
	if err != nil {
		return nil, err
	}
	return s.Events(), nil
}

func TestRoundTripSimple(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{{Site: 0, Taken: true}, {Site: 0, Taken: true}, {Site: 1, Taken: false}, {Site: 0, Taken: true}, {Site: 2, Taken: true}, {Site: 2, Taken: true}, {Site: 2, Taken: true}}
	for _, ev := range events {
		w.Branch(term(ev.Site), ev.Taken)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d events from empty trace", len(got))
	}
}

func TestRoundTripProperty(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		events := make([]Event, int(n))
		for i := range events {
			// Small site range provokes runs.
			events[i] = Event{Site: int32(rng.Intn(3)), Taken: rng.Intn(2) == 0}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, ev := range events {
			w.Branch(term(ev.Site), ev.Taken)
		}
		if err := w.Close(); err != nil {
			return false
		}
		got, err := readAll(buf.Bytes())
		if err != nil {
			return false
		}
		if len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLengthCompresses(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tm := term(5)
	const n = 100000
	for i := 0; i < n; i++ {
		w.Branch(tm, true)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 64 {
		t.Fatalf("RLE trace of %d identical events is %d bytes", n, buf.Len())
	}
	got, err := readAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d, want %d", len(got), n)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := readAll([]byte("NOTATRACE")); err == nil {
		t.Fatal("want error for bad magic")
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Branch(term(int32(i)), i%2 == 0)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := readAll(full[:len(full)-3]); err == nil {
		t.Fatal("truncated trace decoded cleanly")
	}
}

func TestFooterCountMismatchDetected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Branch(term(0), true)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the footer count (last byte is the uvarint count 1 → 7).
	raw := buf.Bytes()
	raw[len(raw)-1] = 7
	if _, err := readAll(raw); err == nil {
		t.Fatal("footer mismatch not detected")
	}
}

func TestCounts(t *testing.T) {
	c := NewCounts(3)
	c.Branch(term(0), true)
	c.Branch(term(0), true)
	c.Branch(term(0), false)
	c.Branch(term(2), false)
	if c.Taken[0] != 2 || c.NotTaken[0] != 1 {
		t.Fatalf("site 0 counts = %d/%d", c.Taken[0], c.NotTaken[0])
	}
	if c.Total(0) != 3 || c.Total(1) != 0 || c.Total(2) != 1 {
		t.Fatal("totals wrong")
	}
	if c.TotalAll() != 4 {
		t.Fatalf("TotalAll = %d", c.TotalAll())
	}
	if c.Executed() != 2 {
		t.Fatalf("Executed = %d, want 2", c.Executed())
	}
}

func TestMultiFansOut(t *testing.T) {
	a := NewCounts(1)
	var b eventList
	m := Multi{a, &b}
	m.RecordBranch(0, true)
	m.RecordRun(0, false, 3)
	m.RecordSwitch(0, 2, 1)
	want := eventList{{Site: 0, Taken: true}, {Site: 0}, {Site: 0}, {Site: 0}, {Site: 0, Switch: true, Outcome: 2}}
	if a.Total(0) != 4 || !reflect.DeepEqual(b, want) {
		t.Fatalf("multi did not fan out: counts %d, events %v", a.Total(0), b)
	}
}

func TestReplay(t *testing.T) {
	events := []Event{{Site: 0, Taken: true}, {Site: 1, Taken: false}, {Site: 0, Taken: false}}
	c := NewCounts(2)
	recordSlab(events).ReplayInto(c)
	if c.Taken[0] != 1 || c.NotTaken[0] != 1 || c.NotTaken[1] != 1 {
		t.Fatalf("replay counts wrong: %+v", c)
	}
}
