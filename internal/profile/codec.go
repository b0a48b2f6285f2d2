package profile

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// This file makes the profile bundle serializable so the service's disk
// tier can persist it across restarts. The history types keep their
// mutable state unexported (the collectors are hot-path code and the
// fields are invariants, not API), so each gets an explicit gob wire
// mirror with exported fields. Decoding reconstructs every derived field
// (masks, memo caches) rather than trusting the wire, so a decoded bundle
// behaves identically to a freshly collected one. Decoded shapes are
// checked against the invariants the collectors index by — a disk-tier
// payload is untrusted input, so a malformed one must fail to decode
// rather than panic on the next recorded branch.

type localWire struct {
	K     int
	Hist  []uint32
	Seen  []uint32
	Tabs  [][]Pair
	Total uint64
}

// GobEncode implements gob.GobEncoder.
func (h *LocalHistory) GobEncode() ([]byte, error) {
	return encodeWire(localWire{K: h.K, Hist: h.hist, Seen: h.seen, Tabs: h.tabs, Total: h.total})
}

// GobDecode implements gob.GobDecoder.
func (h *LocalHistory) GobDecode(data []byte) error {
	var w localWire
	if err := decodeWire(data, &w); err != nil {
		return err
	}
	if w.K < 1 || w.K > 16 {
		return fmt.Errorf("profile: decoded local history length %d out of range", w.K)
	}
	if len(w.Hist) != len(w.Tabs) || len(w.Seen) != len(w.Tabs) {
		return fmt.Errorf("profile: decoded local history has %d histories, %d warm-up counters, %d tables",
			len(w.Hist), len(w.Seen), len(w.Tabs))
	}
	mask := uint32(1)<<uint(w.K) - 1
	for s, hist := range w.Hist {
		if hist > mask {
			return fmt.Errorf("profile: decoded local history %#x of site %d exceeds %d bits", hist, s, w.K)
		}
	}
	if err := checkTables(w.Tabs, w.K); err != nil {
		return err
	}
	*h = LocalHistory{K: w.K, hist: w.Hist, seen: w.Seen, tabs: w.Tabs, mask: mask, total: w.Total}
	return nil
}

type globalWire struct {
	K     int
	GHR   uint32
	Seen  uint32
	Tabs  [][]Pair
	Total uint64
}

// GobEncode implements gob.GobEncoder.
func (h *GlobalHistory) GobEncode() ([]byte, error) {
	return encodeWire(globalWire{K: h.K, GHR: h.ghr, Seen: h.seen, Tabs: h.tabs, Total: h.total})
}

// GobDecode implements gob.GobDecoder.
func (h *GlobalHistory) GobDecode(data []byte) error {
	var w globalWire
	if err := decodeWire(data, &w); err != nil {
		return err
	}
	if w.K < 1 || w.K > 16 {
		return fmt.Errorf("profile: decoded global history length %d out of range", w.K)
	}
	mask := uint32(1)<<uint(w.K) - 1
	if w.GHR > mask {
		return fmt.Errorf("profile: decoded global history register %#x exceeds %d bits", w.GHR, w.K)
	}
	if err := checkTables(w.Tabs, w.K); err != nil {
		return err
	}
	*h = GlobalHistory{K: w.K, ghr: w.GHR, seen: w.Seen, tabs: w.Tabs, mask: mask, total: w.Total}
	return nil
}

// checkTables requires every allocated pattern table to have one entry per
// k-bit pattern, as the collectors allocate them.
func checkTables(tabs [][]Pair, k int) error {
	for s, tab := range tabs {
		if tab != nil && len(tab) != 1<<uint(k) {
			return fmt.Errorf("profile: decoded table of site %d has %d entries, want %d", s, len(tab), 1<<uint(k))
		}
	}
	return nil
}

type pathWire struct {
	M     int
	Key   PathKey
	Seen  uint32
	Tabs  []map[PathKey]Pair
	Total uint64
}

// GobEncode implements gob.GobEncoder. Pairs are flattened out of their
// pointers; gob map ordering is nondeterministic but decode rebuilds the
// same logical table either way.
func (h *PathHistory) GobEncode() ([]byte, error) {
	w := pathWire{M: h.M, Key: h.key, Seen: h.seen, Total: h.total}
	w.Tabs = make([]map[PathKey]Pair, len(h.tabs))
	for s, tab := range h.tabs {
		if tab == nil {
			continue
		}
		m := make(map[PathKey]Pair, len(tab))
		for k, p := range tab {
			m[k] = *p
		}
		w.Tabs[s] = m
	}
	return encodeWire(w)
}

// GobDecode implements gob.GobDecoder. The per-site memo caches are
// reallocated empty; they are pure caches and refill on use.
func (h *PathHistory) GobDecode(data []byte) error {
	var w pathWire
	if err := decodeWire(data, &w); err != nil {
		return err
	}
	if w.M < 1 || w.M > 4 {
		return fmt.Errorf("profile: decoded path length %d out of range", w.M)
	}
	tabs := make([]map[PathKey]*Pair, len(w.Tabs))
	for s, m := range w.Tabs {
		if m == nil {
			continue
		}
		tab := make(map[PathKey]*Pair, len(m))
		for k, p := range m {
			q := p
			tab[k] = &q
		}
		tabs[s] = tab
	}
	*h = PathHistory{
		M: w.M, key: w.Key, seen: w.Seen, tabs: tabs, total: w.Total,
		memoKey: make([]PathKey, len(tabs)),
		memoP:   make([]*Pair, len(tabs)),
	}
	return nil
}

type streamWire struct {
	Words []uint64
	N     int
}

// GobEncode implements gob.GobEncoder.
func (s *Stream) GobEncode() ([]byte, error) {
	return encodeWire(streamWire{Words: s.words, N: s.n})
}

// GobDecode implements gob.GobDecoder.
func (s *Stream) GobDecode(data []byte) error {
	var w streamWire
	if err := decodeWire(data, &w); err != nil {
		return err
	}
	if w.N < 0 || (w.N > 0 && (w.N+63)/64 > len(w.Words)) {
		return fmt.Errorf("profile: decoded stream length %d does not fit %d words", w.N, len(w.Words))
	}
	*s = Stream{words: w.Words, n: w.N}
	return nil
}

type streamsWire struct {
	Sites []Stream
	Total uint64
}

// GobEncode implements gob.GobEncoder.
func (c *Streams) GobEncode() ([]byte, error) {
	return encodeWire(streamsWire{Sites: c.sites, Total: c.total})
}

// GobDecode implements gob.GobDecoder.
func (c *Streams) GobDecode(data []byte) error {
	var w streamsWire
	if err := decodeWire(data, &w); err != nil {
		return err
	}
	*c = Streams{sites: w.Sites, total: w.Total}
	return nil
}

func encodeWire(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeWire(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
