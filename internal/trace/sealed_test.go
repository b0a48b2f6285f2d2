package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// buildSlab records a deterministic pseudo-random event stream with
// genuine RLE runs.
func buildSlab(t testing.TB, seed int64, n int) *Slab {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewSlab(n)
	site := int32(0)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			site = int32(rng.Intn(64))
		}
		// Biased outcomes produce genuine RLE runs.
		s.RecordBranch(site, rng.Intn(4) != 0)
	}
	s.Seal()
	return s
}

func TestSealedRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, 25_000} {
		orig := buildSlab(t, int64(n)+1, n)
		enc := orig.AppendSealed(nil)
		if len(enc) != orig.SealedSize() {
			t.Fatalf("n=%d: SealedSize %d != encoded %d", n, orig.SealedSize(), len(enc))
		}
		got, err := OpenSealed(enc)
		if err != nil {
			t.Fatalf("n=%d: OpenSealed: %v", n, err)
		}
		if got.Len() != orig.Len() {
			t.Fatalf("n=%d: Len %d != %d", n, got.Len(), orig.Len())
		}
		if !reflect.DeepEqual(got.Events(), orig.Events()) {
			t.Fatalf("n=%d: events differ after round trip", n)
		}
		if got.Sites() != orig.Sites() {
			t.Fatalf("n=%d: Sites %d != %d", n, got.Sites(), orig.Sites())
		}
		if !bytes.Equal(got.AppendSealed(nil), enc) {
			t.Fatalf("n=%d: re-encoding differs", n)
		}
	}
}

// TestSealedZeroCopy pins the zero-copy contract: the opened slab's event
// bytes alias the container, not a copy.
func TestSealedZeroCopy(t *testing.T) {
	orig := buildSlab(t, 7, 5000)
	enc := orig.AppendSealed(nil)
	got, err := OpenSealed(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.buf) > 0 && &got.buf[0] != &enc[len(enc)-len(got.buf)-sealedCRCSize] {
		t.Fatal("OpenSealed copied the event bytes instead of aliasing the container")
	}
}

func TestSealedRejectsCorruption(t *testing.T) {
	orig := buildSlab(t, 3, 2000)
	enc := orig.AppendSealed(nil)

	// Truncations at every boundary-ish length must error, not panic.
	for _, cut := range []int{0, 4, len(sealedMagic), len(sealedMagic) + 1, len(enc) / 2, len(enc) - 1} {
		if _, err := OpenSealed(enc[:cut]); err == nil {
			t.Errorf("OpenSealed accepted a %d-byte truncation of %d bytes", cut, len(enc))
		}
	}
	// A flipped payload bit must fail the CRC.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-sealedCRCSize-10] ^= 0x40
	if _, err := OpenSealed(bad); err == nil {
		t.Error("OpenSealed accepted a corrupt payload")
	}
	// A bad magic must be refused.
	bad = append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := OpenSealed(bad); err == nil {
		t.Error("OpenSealed accepted a bad magic")
	}
	// Containers whose CRC is right but whose event bytes are not.
	for _, tc := range []struct {
		name   string
		n      uint64
		events []byte
	}{
		{"truncated varint", 1, []byte{0x80}},
		{"bare footer code", 0, []byte{0}},
		{"leading run marker", 5, []byte{1, 5}},
		{"count mismatch", 2, []byte{(1 + 1) << 1}},
		{"singles past the count, then a wrapping run", 3, wrapBomb([]byte{(1 + 1) << 1}, 4, 3)},
		{"switches past the count, then a wrapping run", 3, wrapBomb([]byte{1, 0, 1, 2}, 4, 3)},
	} {
		if s, err := OpenSealed(sealedBytes(tc.n, tc.events)); err == nil {
			t.Errorf("%s: OpenSealed accepted it (Len %d)", tc.name, s.Len())
		}
	}
}

// sealedBytes builds a container with header count n around event bytes
// events, with a correct CRC.
func sealedBytes(n uint64, events []byte) []byte {
	b := append([]byte(sealedMagic), binary.AppendUvarint(nil, n)...)
	b = binary.AppendUvarint(b, uint64(len(events)))
	b = append(b, events...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(events))
}

func TestMapSealedFile(t *testing.T) {
	orig := buildSlab(t, 11, 25_000)
	path := filepath.Join(t.TempDir(), "slab.blslab")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.WriteSealedTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, closeFn, err := MapSealedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events(), orig.Events()) {
		t.Fatal("mapped slab replays differently from the original")
	}
	var a, b Counts
	a.Taken = make([]uint64, 64)
	a.NotTaken = make([]uint64, 64)
	b.Taken = make([]uint64, 64)
	b.NotTaken = make([]uint64, 64)
	orig.ReplayInto(&a)
	got.ReplayInto(&b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("mapped slab counts differ")
	}
	if err := closeFn(); err != nil {
		t.Fatalf("close: %v", err)
	}

	if _, _, err := MapSealedFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("MapSealedFile accepted a missing file")
	}
}

// FuzzOpenSealed throws arbitrary containers at the disk tier's slab
// decoder: it must never panic, and a container it accepts must re-encode
// byte-identically and replay into MaxSite and into a Counts sized from
// it. The seed corpus (testdata/fuzz/FuzzOpenSealed) holds well-formed
// containers and containers whose CRC is right but whose event bytes are
// not.
func FuzzOpenSealed(f *testing.F) {
	f.Add(buildSlab(f, 1, 0).AppendSealed(nil))
	f.Add(buildSlab(f, 2, 300).AppendSealed(nil))
	f.Add(recordSlab(mixedEvents(200, 3)).AppendSealed(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := OpenSealed(data)
		if err != nil {
			return
		}
		if !bytes.Equal(s.AppendSealed(nil), data) {
			t.Fatal("accepted container does not re-encode byte-identically")
		}
		var max MaxSite
		s.ReplayInto(&max)
		if max.N != s.Sites() || max.Outcomes != s.Outcomes() {
			t.Fatalf("MaxSite %+v != Sites %d, Outcomes %d", max, s.Sites(), s.Outcomes())
		}
		s.ReplayInto(NewCounts(max.N))
		var sum eventSum
		s.ReplayInto(&sum)
		if uint64(sum) != s.Len() {
			t.Fatalf("replayed %d events, header says %d", sum, s.Len())
		}
	})
}

// eventSum totals a replay's events, saturating rather than wrapping, so a
// run that wraps a uint64 count shows as a total no slab can have.
type eventSum uint64

func (s *eventSum) add(n uint64) {
	if uint64(*s)+n < n {
		*s = math.MaxUint64
		return
	}
	*s += eventSum(n)
}

func (s *eventSum) RecordBranch(int32, bool)            { s.add(1) }
func (s *eventSum) RecordRun(_ int32, _ bool, n uint64) { s.add(n) }
func (s *eventSum) RecordSwitch(_, _ int32, n uint64)   { s.add(n) }
