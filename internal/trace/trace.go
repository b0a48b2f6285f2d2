// Package trace defines the branch-event plumbing between the interpreter
// and the analyses, plus a compact on-disk trace format mirroring the
// paper's profiling tool (which wrote branch number + direction to a file,
// about 10 MB for 50 million branches in compressed form; our varint+RLE
// encoding is in the same ballpark).
package trace

import (
	"encoding/binary"
	"errors"
	"io"

	"repro/internal/ir"
)

// Sink consumes a branch-event stream keyed by site. Every table and
// predictor in this repository is a Sink, and so are the two encoders
// (Slab and Writer).
//
// Events arrive split by grain: a single conditional branch through
// RecordBranch, a maximal RLE run of n identical outcomes through
// RecordRun, and n identical N-way dispatch events through RecordSwitch,
// whose outcome is the selected successor index (case index v for
// 0 <= v < len(Targets), len(Targets) for the default arm). Switch sites
// share the dense site space with branch sites; a sink with no use for
// switch events implements RecordSwitch as a no-op.
//
// The run contract is strict: RecordRun(s, t, n) must leave the sink in a
// state bit-identical to n consecutive RecordBranch(s, t) calls, and
// RecordSwitch(s, o, n) identical to n calls of RecordSwitch(s, o, 1), so
// replaying through runs is a pure speed-up, never an approximation
// (pinned by FuzzRunCollectorEquivalence). A sink with no closed form for
// a run delegates to PerEvent.
type Sink interface {
	RecordBranch(site int32, taken bool)
	RecordRun(site int32, taken bool, n uint64)
	RecordSwitch(site, outcome int32, n uint64)
}

// Multi fans one event stream out to several sinks, in order.
type Multi []Sink

// RecordBranch implements Sink.
func (m Multi) RecordBranch(site int32, taken bool) {
	for _, s := range m {
		s.RecordBranch(site, taken)
	}
}

// RecordRun implements Sink.
func (m Multi) RecordRun(site int32, taken bool, n uint64) {
	for _, s := range m {
		s.RecordRun(site, taken, n)
	}
}

// RecordSwitch implements Sink.
func (m Multi) RecordSwitch(site, outcome int32, n uint64) {
	for _, s := range m {
		s.RecordSwitch(site, outcome, n)
	}
}

// PerEvent expands runs for the wrapped sink: RecordRun(s, t, n) becomes
// n RecordBranch(s, t) calls and RecordSwitch(s, o, n) becomes n
// RecordSwitch(s, o, 1) calls. It is the fallback for consumers whose
// state has no closed form under a run, and the event-at-a-time reference
// the run-aware oracles compare against.
type PerEvent struct{ Sink }

// RecordRun implements Sink.
func (p PerEvent) RecordRun(site int32, taken bool, n uint64) {
	for ; n > 0; n-- {
		p.Sink.RecordBranch(site, taken)
	}
}

// RecordSwitch implements Sink.
func (p PerEvent) RecordSwitch(site, outcome int32, n uint64) {
	for ; n > 0; n-- {
		p.Sink.RecordSwitch(site, outcome, 1)
	}
}

// Event is one recorded branch outcome. Switch marks an N-way dispatch
// event, whose selected successor index is Outcome (Taken is meaningless
// then); otherwise the event is a conditional branch and Outcome is 0.
type Event struct {
	Site    int32
	Taken   bool
	Switch  bool
	Outcome int32
}

// eventList collects a decoded stream as Events (Slab.Events).
type eventList []Event

func (l *eventList) RecordBranch(site int32, taken bool) {
	*l = append(*l, Event{Site: site, Taken: taken})
}

func (l *eventList) RecordRun(site int32, taken bool, n uint64) {
	PerEvent{l}.RecordRun(site, taken, n)
}

func (l *eventList) RecordSwitch(site, outcome int32, n uint64) {
	for ; n > 0; n-- {
		*l = append(*l, Event{Site: site, Switch: true, Outcome: outcome})
	}
}

// Counts accumulates per-site taken/not-taken totals, the "profile"
// strategy's entire data requirement. Switch events do not count.
type Counts struct {
	Taken    []uint64
	NotTaken []uint64
}

// NewCounts sizes the tables for nSites branch sites.
func NewCounts(nSites int) *Counts {
	return &Counts{Taken: make([]uint64, nSites), NotTaken: make([]uint64, nSites)}
}

// Branch is the interpreter-hook form of RecordBranch.
func (c *Counts) Branch(t *ir.Term, taken bool) { c.RecordBranch(t.Site, taken) }

// RecordBranch implements Sink.
func (c *Counts) RecordBranch(site int32, taken bool) {
	if taken {
		c.Taken[site]++
	} else {
		c.NotTaken[site]++
	}
}

// RecordRun implements Sink.
func (c *Counts) RecordRun(site int32, taken bool, n uint64) {
	if taken {
		c.Taken[site] += n
	} else {
		c.NotTaken[site] += n
	}
}

// RecordSwitch implements Sink as a no-op.
func (c *Counts) RecordSwitch(int32, int32, uint64) {}

// Total returns the number of events recorded for site s.
func (c *Counts) Total(s int32) uint64 { return c.Taken[s] + c.NotTaken[s] }

// TotalAll sums events across all sites.
func (c *Counts) TotalAll() uint64 {
	var n uint64
	for i := range c.Taken {
		n += c.Taken[i] + c.NotTaken[i]
	}
	return n
}

// Executed counts the sites that were executed at least once.
func (c *Counts) Executed() int {
	n := 0
	for i := range c.Taken {
		if c.Taken[i]+c.NotTaken[i] > 0 {
			n++
		}
	}
	return n
}

// MaxSite scans a replay for the highest site ID plus one, branch and
// switch sites alike — the table size a trace of unknown provenance needs —
// and for the highest switch outcome plus one.
type MaxSite struct {
	// N is max(site)+1 over the events seen, 0 before any event.
	N int
	// Outcomes is max(outcome)+1 over the switch events seen, 0 before any.
	Outcomes int
}

// RecordBranch implements Sink.
func (m *MaxSite) RecordBranch(site int32, _ bool) {
	if int(site) >= m.N {
		m.N = int(site) + 1
	}
}

// RecordRun implements Sink.
func (m *MaxSite) RecordRun(site int32, taken bool, _ uint64) { m.RecordBranch(site, taken) }

// RecordSwitch implements Sink.
func (m *MaxSite) RecordSwitch(site, outcome int32, _ uint64) {
	m.RecordBranch(site, false)
	if int(outcome) >= m.Outcomes {
		m.Outcomes = int(outcome) + 1
	}
}

const magic = "BLTRACE1"

// Writer streams events to an io.Writer in the on-disk format:
//
//	header:  "BLTRACE1"
//	events:  uvarint( (site+1)<<1 | taken )   — +1 keeps 0 as terminator
//	footer:  uvarint(0) then uvarint(total event count)
//
// Consecutive repeats of the same (site, taken) pair are run-length
// encoded as uvarint(1) uvarint(repeat count): the value 1 cannot occur as
// an event code because site+1 >= 1 shifted left is >= 2.
//
// Switch (N-way dispatch) events use the run marker's one unused slot — a
// zero-length run — as an escape:
//
//	switch:  uvarint(1) uvarint(0) uvarint(site+1) uvarint(outcome)
//
// The escape is self-contained, and a run marker after it repeats the
// switch event exactly as it would a branch event. Streams containing
// only conditional branches carry no escapes.
//
// The events are encoded by a Slab, whose buffer is drained to w every
// writeChunk bytes, so a Writer's output is byte-identical to
// Slab.WriteTo of the same events.
type Writer struct {
	w      io.Writer
	s      *Slab
	err    error
	closed bool
}

// writeChunk is the encoded size at which a Writer drains its slab.
const writeChunk = 1 << 16

// NewWriter writes the header and returns a streaming writer.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := io.WriteString(w, magic); err != nil {
		return nil, err
	}
	return &Writer{w: w, s: NewSlab(writeChunk)}, nil
}

// Branch is the interpreter-hook form of RecordBranch.
func (w *Writer) Branch(t *ir.Term, taken bool) { w.RecordBranch(t.Site, taken) }

// RecordBranch implements Sink.
func (w *Writer) RecordBranch(site int32, taken bool) {
	w.s.RecordBranch(site, taken)
	w.drain(writeChunk)
}

// RecordRun implements Sink.
func (w *Writer) RecordRun(site int32, taken bool, n uint64) {
	w.s.RecordRun(site, taken, n)
	w.drain(writeChunk)
}

// RecordSwitch implements Sink.
func (w *Writer) RecordSwitch(site, outcome int32, n uint64) {
	w.s.RecordSwitch(site, outcome, n)
	w.drain(writeChunk)
}

// drain writes out the encoded bytes once at least min are buffered. The
// slab's pending run and last code live outside its buffer, so draining
// mid-stream does not change the encoding. The first write error sticks
// and surfaces at Close.
func (w *Writer) drain(min int) {
	if len(w.s.buf) < min {
		return
	}
	if w.err == nil {
		_, w.err = w.w.Write(w.s.buf)
	}
	w.s.buf = w.s.buf[:0]
}

// Close flushes pending runs and the footer. The Writer must not be used
// afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return errors.New("trace: writer already closed")
	}
	w.closed = true
	w.s.Seal()
	w.s.buf = appendFooter(w.s.buf, w.s.n)
	w.drain(0)
	return w.err
}

// appendFooter appends the stream terminator and the event count.
func appendFooter(dst []byte, n uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(dst, 0), n)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
