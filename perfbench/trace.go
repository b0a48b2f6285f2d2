package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent 0 marks a root: a pass, or
// one client's share of a pass.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory; write saves them
// when the run ends. A nil *tracer records nothing, which is how untraced
// passes run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs f inside a span named name.
func (t *tracer) call(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// selfTimes sums, per span name, each span's duration minus the time its
// children cover. Children of one span never overlap: every caller opens
// them one after another on one goroutine.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start)
		if s.Parent != 0 {
			p := t.spans[s.Parent-1]
			self[p.Name] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// durations lists the durations of the spans named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// rootName names the spans that stand for a pass (or a client's share of
// one). Spans whose names hold no dot — the roots, and compile's
// per-program span — time the benchmark's own glue, not a layer.
const rootName = "pass"

// overheadName names spans of work done only to split a layer's time
// (a repeated call); it belongs to no layer and to no wall time.
const overheadName = "trace.calibrate"

// selfSumPct is the layers' summed self time as a share of the traced
// wall time, both net of calibration work. Near 100 means the layer
// spans account for the whole run.
func (t *tracer) selfSumPct() float64 {
	var layers, wall time.Duration
	for name, d := range t.selfTimes() {
		switch {
		case name == overheadName:
			wall -= d
		case strings.Contains(name, "."):
			layers += d
		}
	}
	for _, d := range t.durations(rootName) {
		wall += d
	}
	return 100 * layers.Seconds() / wall.Seconds()
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
