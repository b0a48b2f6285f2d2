package profile

import "math/bits"

// Stream is a packed per-branch outcome sequence (1 = taken). The
// state-machine search replays streams to score candidate machines with
// exact automaton semantics, instead of the paper's slightly optimistic
// longest-match counting (see DESIGN.md).
type Stream struct {
	words []uint64
	n     int
}

// Append records one outcome.
func (s *Stream) Append(taken bool) {
	w := s.n >> 6
	if w == len(s.words) {
		s.words = append(s.words, 0)
	}
	if taken {
		s.words[w] |= 1 << uint(s.n&63)
	}
	s.n++
}

// Len is the number of recorded outcomes.
func (s *Stream) Len() int { return s.n }

// Get returns outcome i.
func (s *Stream) Get(i int) bool {
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// RunAt returns the maximal run of equal outcomes that starts at i: its
// direction and its length (at least 1). It reads the packed words a word
// at a time, so a run of length L costs O(1 + L/64); a stream is walked
// run by run as i += n from i = 0 to Len.
func (s *Stream) RunAt(i int) (taken bool, n int) {
	taken = s.Get(i)
	j := i
	for j < s.n {
		w := s.words[j>>6] >> uint(j&63)
		if taken {
			w = ^w
		}
		// w's low bits are now zero while the run lasts. Above bit rest-1
		// w holds the shift's fill, so z >= rest exactly when the run
		// reaches the word's end; it then carries on into the next word.
		z, rest := bits.TrailingZeros64(w), 64-j&63
		if z < rest {
			j += z
			break
		}
		j += rest
	}
	// The last word may run on past the final outcome; the run stops there.
	return taken, min(j, s.n) - i
}

// Streams collects one outcome stream per branch site.
type Streams struct {
	sites []Stream
	total uint64
}

// NewStreams sizes the collector for nSites branch sites.
func NewStreams(nSites int) *Streams {
	return &Streams{sites: make([]Stream, nSites)}
}

// RecordSwitch implements trace.Sink as a no-op.
func (c *Streams) RecordSwitch(int32, int32, uint64) {}

// RecordBranch implements trace.Sink.
func (c *Streams) RecordBranch(site int32, taken bool) {
	c.sites[site].Append(taken)
	c.total++
}

// Site returns the stream of one branch site.
func (c *Streams) Site(s int32) *Stream { return &c.sites[s] }

// NumSites is the number of branch sites.
func (c *Streams) NumSites() int { return len(c.sites) }

// Total is the number of recorded events.
func (c *Streams) Total() uint64 { return c.total }
