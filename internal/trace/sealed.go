package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// sealedMagic heads the sealed-slab container: the varint+RLE event bytes
// of a sealed Slab in a form that can be handed back to OpenSealed without
// re-encoding. The trailing digits version the layout; a reader seeing an
// unknown magic must refuse rather than guess.
const sealedMagic = "BLSLAB02"

// sealedCRCSize is the trailing IEEE CRC-32 of the event bytes.
const sealedCRCSize = 4

// Layout after the magic:
//
//	uvarint n            total event count
//	uvarint len(buf)     encoded event bytes
//	buf                  the varint+RLE event stream
//	crc32(buf)           4 bytes little-endian, IEEE polynomial
//
// Everything is byte-oriented — varints and raw bytes — so a reader may
// alias the container at any alignment: OpenSealed on an mmap'd file never
// copies the event stream.

// SealedSize returns the encoded size of the sealed container.
func (s *Slab) SealedSize() int {
	s.mustSealed("SealedSize")
	return len(sealedMagic) + uvarintLen(s.n) + uvarintLen(uint64(len(s.buf))) + len(s.buf) + sealedCRCSize
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendSealed appends the sealed-slab container to dst and returns the
// extended slice. The slab must be sealed.
func (s *Slab) AppendSealed(dst []byte) []byte {
	s.mustSealed("AppendSealed")
	dst = append(dst, sealedMagic...)
	dst = binary.AppendUvarint(dst, s.n)
	dst = binary.AppendUvarint(dst, uint64(len(s.buf)))
	dst = append(dst, s.buf...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(s.buf))
	return dst
}

// WriteSealedTo writes the sealed-slab container to w.
func (s *Slab) WriteSealedTo(w io.Writer) (int64, error) {
	buf := s.AppendSealed(make([]byte, 0, s.SealedSize()))
	n, err := w.Write(buf)
	return int64(n), err
}

// OpenSealed reconstructs a sealed Slab from a container produced by
// AppendSealed, aliasing the event bytes in data — the zero-copy open path
// of the disk tier. The caller must keep data immutable and alive for as
// long as the slab is used (a *diskstore.Mapped does both). The decode is
// alignment-safe: only byte loads touch data.
//
// Beyond magic, lengths and CRC, one pass of the general decode loop
// validates the event stream, so replaying an opened slab cannot fail:
// malformed varints, a footer code 0, a run marker before any event, and
// an event total other than the header's are all rejected. The same pass
// sets Sites and Outcomes, which a caller checks against the tables it
// will replay into: sites and outcomes are otherwise bounded only by
// int32. The header
// varints must be minimal and the container must end at the CRC, so an
// accepted container re-encodes byte-identically through AppendSealed.
func OpenSealed(data []byte) (*Slab, error) {
	if len(data) < len(sealedMagic) || string(data[:len(sealedMagic)]) != sealedMagic {
		return nil, fmt.Errorf("trace: sealed slab: bad magic")
	}
	i := len(sealedMagic)
	next := func(what string) (uint64, error) {
		v, k := binary.Uvarint(data[i:])
		if k <= 0 || k != uvarintLen(v) {
			return 0, fmt.Errorf("trace: sealed slab: malformed %s at byte %d", what, i)
		}
		i += k
		return v, nil
	}
	n, err := next("event count")
	if err != nil {
		return nil, err
	}
	blen, err := next("event bytes length")
	if err != nil {
		return nil, err
	}
	if rest := uint64(len(data) - i); blen > rest || rest-blen != sealedCRCSize {
		return nil, fmt.Errorf("trace: sealed slab: %d event bytes claimed, %d bytes follow", blen, rest)
	}
	buf := data[i : i+int(blen) : i+int(blen)]
	want := binary.LittleEndian.Uint32(data[i+int(blen):])
	if got := crc32.ChecksumIEEE(buf); got != want {
		return nil, fmt.Errorf("trace: sealed slab: crc mismatch %08x != %08x", got, want)
	}
	var sites MaxSite
	got, foot, err := decode(buf, &sites, n)
	if err != nil {
		return nil, fmt.Errorf("trace: sealed slab: %w", err)
	}
	if foot != 0 {
		return nil, fmt.Errorf("trace: sealed slab: footer code inside the event stream at byte %d", foot-1)
	}
	if got != n {
		return nil, fmt.Errorf("trace: sealed slab: %d events decoded, header says %d", got, n)
	}
	return &Slab{buf: buf, n: n, sites: sites.N, outcomes: sites.Outcomes, sealed: true}, nil
}
