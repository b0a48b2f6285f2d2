package trace

import (
	"encoding/binary"
	"io"
)

// Slab is the record-once/replay-many in-memory branch trace: the event
// stream of one interpreted run, encoded with the same varint+RLE scheme as
// the on-disk format (Writer), so two million branch events occupy a few
// hundred kilobytes to a few megabytes. A Slab is recorded through its
// Sink methods by the interpreter (interp.Machine.Rec), sealed, cached as
// an immutable artifact, and then replayed into any number of sinks at
// memory-bandwidth speed — no interpreter dispatch per event.
type Slab struct {
	buf      []byte
	last     uint64
	run      uint64
	n        uint64
	sites    int
	outcomes int
	sealed   bool
}

// NewSlab creates an empty slab. sizeHint is the expected number of events
// (a branch budget); it pre-sizes the buffer and may be 0.
func NewSlab(sizeHint int) *Slab {
	capBytes := sizeHint
	if capBytes < 1024 {
		capBytes = 1024
	}
	if capBytes > 1<<24 {
		capBytes = 1 << 24
	}
	return &Slab{buf: make([]byte, 0, capBytes)}
}

// RecordBranch implements Sink, appending one branch event. None of the
// Record methods may be called after Seal.
func (s *Slab) RecordBranch(site int32, taken bool) {
	code := (uint64(site)+1)<<1 | b2u(taken)
	s.n++
	if code == s.last {
		s.run++
		return
	}
	s.begin(code, site)
	s.buf = binary.AppendUvarint(s.buf, code)
}

// RecordRun implements Sink; the encoding is byte-identical to n
// RecordBranch calls.
func (s *Slab) RecordRun(site int32, taken bool, n uint64) {
	if n == 0 {
		return
	}
	s.RecordBranch(site, taken)
	s.n += n - 1
	s.run += n - 1
}

// RecordSwitch implements Sink, appending n N-way dispatch events as the
// switch escape (uvarint 1, 0, site+1, outcome) plus a run. Repeats fold
// into the same RLE run state as branch events.
func (s *Slab) RecordSwitch(site, outcome int32, n uint64) {
	if n == 0 {
		return
	}
	key := swKey(site, outcome)
	s.n += n
	if key == s.last {
		s.run += n
		return
	}
	s.begin(key, site)
	if int(outcome) >= s.outcomes {
		s.outcomes = int(outcome) + 1
	}
	s.buf = binary.AppendUvarint(s.buf, 1)
	s.buf = binary.AppendUvarint(s.buf, 0)
	s.buf = binary.AppendUvarint(s.buf, uint64(site)+1)
	s.buf = binary.AppendUvarint(s.buf, uint64(outcome))
	s.run = n - 1
}

// begin flushes the pending run ahead of a new code and notes its site.
func (s *Slab) begin(key uint64, site int32) {
	s.flushRun()
	if int(site) >= s.sites {
		s.sites = int(site) + 1
	}
	s.last = key
}

// swKey is the synthetic RLE key for a switch event. Bit 63 keeps it
// disjoint from every branch event code, whose site field caps the code
// below 2^33.
func swKey(site, outcome int32) uint64 {
	return 1<<63 | uint64(uint32(site))<<32 | uint64(uint32(outcome))
}

// Seal flushes the pending run and freezes the slab; budget-truncated runs
// (the interpreter stopping at MaxBranches) are sealed exactly where they
// stopped. Seal is idempotent, and a sealed slab is safe for concurrent
// replay from multiple goroutines.
func (s *Slab) Seal() {
	if s.sealed {
		return
	}
	s.flushRun()
	s.sealed = true
}

func (s *Slab) flushRun() {
	if s.run > 0 {
		s.buf = binary.AppendUvarint(s.buf, 1)
		s.buf = binary.AppendUvarint(s.buf, s.run)
		s.run = 0
	}
}

// Len is the number of recorded events.
func (s *Slab) Len() uint64 { return s.n }

// EncodedBytes is the size of the encoded event stream.
func (s *Slab) EncodedBytes() int { return len(s.buf) }

// Sites is the highest site ID in the stream plus one, over branch and
// switch events alike (0 for an empty slab): the smallest per-site table
// every event fits.
func (s *Slab) Sites() int { return s.sites }

// Outcomes is the highest switch outcome in the stream plus one (0 without
// switch events): the row width a TargetCounts replay grows to.
func (s *Slab) Outcomes() int { return s.outcomes }

// ReplayInto decodes the slab once, feeding every event to sink in order:
// single events to RecordBranch, repeat runs to RecordRun and switch
// events to RecordSwitch. Fan out with Multi. A *Counts takes a dedicated
// loop with no call per event; its tables must cover Sites().
func (s *Slab) ReplayInto(sink Sink) {
	s.mustSealed("ReplayInto")
	if c, ok := sink.(*Counts); ok {
		replayCounts(s.buf, c)
		return
	}
	if _, _, err := decode(s.buf, sink, 0); err != nil {
		// Slabs are recorded in-process or validated by OpenSealed.
		panic(err)
	}
}

// Events decodes the whole slab (tests and small consumers).
func (s *Slab) Events() []Event {
	out := make(eventList, 0, s.n)
	s.ReplayInto(&out)
	return out
}

// WriteTo serialises the slab in the on-disk trace format (header, events,
// footer); the result round-trips through ReadSlab.
func (s *Slab) WriteTo(w io.Writer) (int64, error) {
	s.mustSealed("WriteTo")
	var total int64
	n, err := io.WriteString(w, magic)
	total += int64(n)
	if err != nil {
		return total, err
	}
	n, err = w.Write(s.buf)
	total += int64(n)
	if err != nil {
		return total, err
	}
	n, err = w.Write(appendFooter(nil, s.n))
	total += int64(n)
	return total, err
}

func (s *Slab) mustSealed(op string) {
	if !s.sealed {
		panic("trace: Slab." + op + " before Seal")
	}
}
