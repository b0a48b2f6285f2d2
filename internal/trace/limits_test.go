package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// encodeEvents builds a valid BLTRACE1 stream.
func encodeEvents(t testing.TB, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		w.RecordBranch(ev.Site, ev.Taken)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadSlabRoundTrip(t *testing.T) {
	events := []Event{{Site: 0, Taken: true}, {Site: 0, Taken: true}, {Site: 1, Taken: false}, {Site: 2, Taken: true}, {Site: 2, Taken: true}, {Site: 2, Taken: true}, {Site: 0, Taken: false}}
	data := encodeEvents(t, events)
	s, err := ReadSlab(data, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Events(); len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	} else {
		for i, ev := range got {
			if ev != events[i] {
				t.Fatalf("event %d = %+v, want %+v", i, ev, events[i])
			}
		}
	}
}

func TestReadSlabEventLimit(t *testing.T) {
	var events []Event
	for i := 0; i < 100; i++ {
		events = append(events, Event{Site: int32(i % 3), Taken: i%2 == 0})
	}
	data := encodeEvents(t, events)
	if _, err := ReadSlab(data, Limits{MaxEvents: 10}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	if _, err := ReadSlab(data, Limits{MaxEvents: 100}); err != nil {
		t.Fatalf("at the cap exactly: %v", err)
	}
	// Single events past the cap, then a run that wraps the event count
	// back to the footer's claim: the cap must stop the singles.
	for _, single := range [][]byte{{(1 + 1) << 1}, {1, 0, 1, 2}} {
		data := append([]byte(magic), wrapBomb(single, 6, 3)...)
		data = appendFooter(data, 3)
		if s, err := ReadSlab(data, Limits{MaxEvents: 5}); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("single %v: got %v (Len %v), want ErrTooLarge", single, err, s.Len())
		}
	}
}

// wrapBomb encodes k copies of the event bytes single and then a run
// marker whose count wraps a uint64 event total from k to claim.
func wrapBomb(single []byte, k int, claim uint64) []byte {
	var b []byte
	for range k {
		b = append(b, single...)
	}
	b = binary.AppendUvarint(b, 1)
	return binary.AppendUvarint(b, claim-uint64(k))
}

// TestReadSlabRunBombLimited is the attack the cap exists for: a few bytes
// that claim 2^50 identical events must fail at the cap, not materialise.
func TestReadSlabRunBombLimited(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("BLTRACE1")
	b := binary.AppendUvarint(nil, (uint64(7)+1)<<1|1) // one event, site 7 taken
	b = binary.AppendUvarint(b, 1)                     // run marker
	b = binary.AppendUvarint(b, 1<<50)                 // claimed repeats
	buf.Write(b)
	if _, err := ReadSlab(buf.Bytes(), Limits{MaxEvents: 1000}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

// TestReadSlabSiteLimit is the site-ID bomb: a few-byte stream naming a
// huge site must be refused before any consumer sizes per-site tables
// from it.
func TestReadSlabSiteLimit(t *testing.T) {
	data := encodeEvents(t, []Event{{Site: 1 << 30, Taken: true}})
	if _, err := ReadSlab(data, DefaultLimits()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("default limits: got %v, want ErrTooLarge", err)
	}
	if _, err := ReadSlab(data, Limits{MaxSites: 1 << 30}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("site at the cap: got %v, want ErrTooLarge", err)
	}
	if _, err := ReadSlab(data, Limits{MaxSites: 1<<30 + 1}); err != nil {
		t.Fatalf("site under the cap: %v", err)
	}
	if _, err := ReadSlab(data, Limits{}); err != nil {
		t.Fatalf("unlimited sites: %v", err)
	}
}

// TestReadSlabSiteOverflow hand-encodes a site beyond int32: it must be
// reported as corruption, not wrapped into a small alias.
func TestReadSlabSiteOverflow(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("BLTRACE1")
	buf.Write(binary.AppendUvarint(nil, (uint64(1)<<40)<<1)) // site 2^40-1
	_, err := ReadSlab(buf.Bytes(), Limits{})
	if err == nil || errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want an overflow corruption error", err)
	}
}

func TestReadSlabByteLimit(t *testing.T) {
	var events []Event
	for i := 0; i < 10000; i++ {
		events = append(events, Event{Site: int32(i % 97), Taken: i%3 == 0})
	}
	data := encodeEvents(t, events)
	if _, err := ReadSlab(data, Limits{MaxBytes: 64}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestReadSlabTruncated(t *testing.T) {
	data := encodeEvents(t, []Event{{Site: 0, Taken: true}, {Site: 1, Taken: false}, {Site: 2, Taken: true}})
	for cut := 0; cut < len(data); cut++ {
		_, err := ReadSlab(data[:cut], DefaultLimits())
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly", cut, len(data))
		}
	}
}

// FuzzReadSlab throws arbitrary and mutated uploads at the daemon's trace
// decoder: it must never panic, and any stream it accepts must re-encode
// into a byte stream that decodes to the same events within the limits.
func FuzzReadSlab(f *testing.F) {
	f.Add(encodeEvents(f, []Event{{Site: 0, Taken: true}, {Site: 0, Taken: true}, {Site: 1, Taken: false}}))
	f.Add(encodeEvents(f, nil))
	f.Add([]byte("BLTRACE1"))
	f.Add([]byte("NOTATRACE"))
	bomb := append([]byte("BLTRACE1"), binary.AppendUvarint(nil, 4)...)
	bomb = append(bomb, binary.AppendUvarint(nil, 1)...)
	bomb = append(bomb, binary.AppendUvarint(nil, 1<<40)...)
	f.Add(bomb)
	f.Add(encodeEvents(f, []Event{{Site: 1 << 28, Taken: true}})) // site bomb
	lim := Limits{MaxEvents: 4096, MaxSites: 1 << 12, MaxBytes: 1 << 16}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSlab(data, lim)
		if err != nil {
			return
		}
		if s.Len() > lim.MaxEvents {
			t.Fatalf("accepted %d events past the %d cap", s.Len(), lim.MaxEvents)
		}
		var max MaxSite
		s.ReplayInto(&max)
		if max.N != s.Sites() || max.N > int(lim.MaxSites) {
			t.Fatalf("accepted sites up to %d (Sites %d) past the %d-site cap", max.N, s.Sites(), lim.MaxSites)
		}
		if max.Outcomes != s.Outcomes() {
			t.Fatalf("MaxSite outcomes %d != Outcomes %d", max.Outcomes, s.Outcomes())
		}
		var sum eventSum
		s.ReplayInto(&sum)
		if uint64(sum) != s.Len() {
			t.Fatalf("replayed %d events, Len %d", sum, s.Len())
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("re-encoding accepted slab: %v", err)
		}
		s2, err := ReadSlab(buf.Bytes(), lim)
		if err != nil {
			t.Fatalf("re-decoding accepted slab: %v", err)
		}
		if s2.Len() != s.Len() {
			t.Fatalf("round trip changed event count: %d != %d", s2.Len(), s.Len())
		}
	})
}

// TestReadSlabDefaultLimits pins that the file loader path (ReadSlab
// under DefaultLimits) decodes an ordinary trace and still refuses the
// site bomb that DefaultLimits exists for.
func TestReadSlabDefaultLimits(t *testing.T) {
	got, err := readAll(encodeEvents(t, []Event{{Site: 0, Taken: true}}))
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
	lim := DefaultLimits()
	if _, err := readAll(encodeEvents(t, []Event{{Site: lim.MaxSites, Taken: true}})); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("site at the default cap: got %v, want ErrTooLarge", err)
	}
}

// TestConcurrentReadSlab is the batch-path shape: many goroutines decode
// uploads at once, each getting a correct, independent slab.
func TestConcurrentReadSlab(t *testing.T) {
	want := []Event{
		{Site: 0, Taken: true}, {Site: 0, Taken: true}, {Site: 0, Taken: true},
		{Site: 4, Taken: false}, {Site: 2, Taken: true}, {Site: 2, Taken: false},
	}
	enc := encodeEvents(t, want)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s, err := ReadSlab(enc, DefaultLimits())
				if err != nil {
					t.Errorf("ReadSlab: %v", err)
					return
				}
				if got := s.Events(); !reflect.DeepEqual(got, want) {
					t.Errorf("decoded %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
