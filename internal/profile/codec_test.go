package profile

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"
)

// feed drives a deterministic pseudo-random event sequence into a profile.
func feedProfile(p *Profile, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	site := int32(0)
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			site = int32(rng.Intn(p.NSites))
		}
		p.RecordBranch(site, rng.Intn(3) != 0)
	}
}

func roundTrip(t *testing.T, p *Profile) *Profile {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got Profile
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &got
}

// requireEqual compares every observable of two profiles: table contents,
// totals, and the packed streams.
func requireEqual(t *testing.T, a, b *Profile) {
	t.Helper()
	if a.NSites != b.NSites {
		t.Fatalf("NSites %d != %d", a.NSites, b.NSites)
	}
	if !reflect.DeepEqual(a.Counts, b.Counts) {
		t.Fatal("Counts differ")
	}
	if a.Local.K != b.Local.K || a.Local.Recorded() != b.Local.Recorded() {
		t.Fatal("local header differs")
	}
	if a.Global.K != b.Global.K || a.Global.Recorded() != b.Global.Recorded() {
		t.Fatal("global header differs")
	}
	if a.Path.M != b.Path.M || a.Path.Recorded() != b.Path.Recorded() {
		t.Fatal("path header differs")
	}
	for s := int32(0); int(s) < a.NSites; s++ {
		if !reflect.DeepEqual(a.Local.Table(s), b.Local.Table(s)) {
			t.Fatalf("local table %d differs", s)
		}
		if !reflect.DeepEqual(a.Global.Table(s), b.Global.Table(s)) {
			t.Fatalf("global table %d differs", s)
		}
		at, bt := a.Path.Table(s), b.Path.Table(s)
		if len(at) != len(bt) {
			t.Fatalf("path table %d sizes differ", s)
		}
		for k, p := range at {
			q, ok := bt[k]
			if !ok || *p != *q {
				t.Fatalf("path table %d key %v differs", s, k)
			}
		}
		as, bs := a.Streams.Site(s), b.Streams.Site(s)
		if as.Len() != bs.Len() {
			t.Fatalf("stream %d lengths differ", s)
		}
		for i := 0; i < as.Len(); i++ {
			if as.Get(i) != bs.Get(i) {
				t.Fatalf("stream %d outcome %d differs", s, i)
			}
		}
	}
	if a.Streams.Total() != b.Streams.Total() {
		t.Fatal("stream totals differ")
	}
}

func TestProfileGobRoundTrip(t *testing.T) {
	p := New(24, Options{})
	feedProfile(p, 42, 50_000)
	requireEqual(t, p, roundTrip(t, p))
}

func TestProfileGobRoundTripEmpty(t *testing.T) {
	// A fresh, never-fed profile must survive too (lazy tables are nil).
	p := New(8, Options{LocalK: 5, GlobalK: 7, PathM: 2})
	got := roundTrip(t, p)
	requireEqual(t, p, got)
	if got.Local.K != 5 || got.Global.K != 7 || got.Path.M != 2 {
		t.Fatal("non-default options lost in round trip")
	}
}

// TestDecodedProfileKeepsCollecting pins that decode reconstructs the
// derived state (masks, memo caches, history registers): feeding the same
// tail into the original and the decoded copy must land identically.
func TestDecodedProfileKeepsCollecting(t *testing.T) {
	p := New(16, Options{})
	feedProfile(p, 7, 20_000)
	got := roundTrip(t, p)
	feedProfile(p, 99, 20_000)
	feedProfile(got, 99, 20_000)
	requireEqual(t, p, got)
}

// TestDecodeRejectsMalformedHistories pins the disk-tier trust boundary:
// a history wire value whose shape breaks an invariant the collectors
// index by must fail to decode, not panic on the next recorded branch.
func TestDecodeRejectsMalformedHistories(t *testing.T) {
	full := func(k int) []Pair { return make([]Pair, 1<<uint(k)) }
	cases := []struct {
		name  string
		wire  any
		valid bool
	}{
		{"local/mismatched-and-short", localWire{K: 9, Hist: []uint32{0, 0}, Seen: []uint32{9}, Tabs: [][]Pair{{{}}}}, false},
		{"local/hist-vs-tabs", localWire{K: 2, Hist: []uint32{0, 0}, Seen: []uint32{0}, Tabs: [][]Pair{nil}}, false},
		{"local/seen-vs-tabs", localWire{K: 2, Hist: []uint32{0}, Seen: []uint32{0, 0}, Tabs: [][]Pair{nil}}, false},
		{"local/table-size", localWire{K: 2, Hist: []uint32{0}, Seen: []uint32{2}, Tabs: [][]Pair{full(3)}}, false},
		{"local/hist-over-mask", localWire{K: 2, Hist: []uint32{4}, Seen: []uint32{2}, Tabs: [][]Pair{full(2)}}, false},
		{"local/valid", localWire{K: 2, Hist: []uint32{3, 0}, Seen: []uint32{2, 0}, Tabs: [][]Pair{full(2), nil}}, true},
		{"global/ghr-over-mask", globalWire{K: 2, GHR: 1000, Tabs: [][]Pair{nil}}, false},
		{"global/table-size", globalWire{K: 2, GHR: 1, Seen: 2, Tabs: [][]Pair{{{}}}}, false},
		{"global/valid", globalWire{K: 2, GHR: 3, Seen: 2, Tabs: [][]Pair{full(2), nil}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data, err := encodeWire(c.wire)
			if err != nil {
				t.Fatal(err)
			}
			var h interface {
				GobEncode() ([]byte, error)
				GobDecode([]byte) error
				RecordBranch(int32, bool)
			}
			if _, ok := c.wire.(localWire); ok {
				h = new(LocalHistory)
			} else {
				h = new(GlobalHistory)
			}
			err = h.GobDecode(data)
			if !c.valid {
				if err == nil {
					t.Fatal("malformed wire value decoded cleanly")
				}
				return
			}
			if err != nil {
				t.Fatalf("valid wire value rejected: %v", err)
			}
			again, err := h.GobEncode()
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("re-encoding differs from the decoded bytes (err %v)", err)
			}
			// Every site of a valid value keeps collecting.
			for s := int32(0); s < 2; s++ {
				for i := 0; i < 8; i++ {
					h.RecordBranch(s, i%3 == 0)
				}
			}
		})
	}
}
