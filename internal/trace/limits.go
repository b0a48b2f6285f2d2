package trace

import (
	"errors"
	"fmt"
)

// ErrTooLarge is returned (wrapped) when a decoded trace exceeds its
// Limits. Callers distinguish it from corruption with errors.Is.
var ErrTooLarge = errors.New("trace: stream exceeds size limit")

// Limits bounds decoded branch traces. Both the daemon's upload path and
// the file loaders enforce them, so a hostile or truncated BLTRACE1 stream
// cannot balloon into unbounded memory: the run-length encoding can claim
// 2^60 events in a handful of bytes, and only an event cap stops a decoder
// from faithfully materialising them.
type Limits struct {
	// MaxEvents bounds decoded events (0 = unlimited).
	MaxEvents uint64
	// MaxSites rejects any event whose site ID is >= MaxSites (0 = no cap
	// beyond the int32 encoding range). Consumers size per-site tables
	// from the largest site they see, so without this cap a few-byte
	// stream naming site 2^31-1 makes the *consumer* allocate gigabytes
	// even though the decoder itself stays small.
	MaxSites int32
	// MaxBytes bounds encoded input bytes (0 = unlimited).
	MaxBytes int64
}

// DefaultLimits is what the file loaders use: 64M events / 1M sites /
// 256 MiB input, far above any trace this repository produces (the paper's
// largest traces are 100M branches; ours default to 2M) but small enough
// to fail fast on garbage.
func DefaultLimits() Limits {
	return Limits{MaxEvents: 1 << 26, MaxSites: 1 << 20, MaxBytes: 1 << 28}
}

// ReadSlab decodes a BLTRACE1 stream held in data into a sealed Slab under
// lim — the daemon's upload path and the file loaders. The stream is
// decoded by the one general decode loop and re-encoded through the Slab's
// Sink methods, so the result is exactly what an in-process recording of
// the same events would have produced (and is safe for concurrent replay
// once returned); it does not alias data. Bytes after the footer are
// ignored.
func ReadSlab(data []byte, lim Limits) (*Slab, error) {
	if lim.MaxBytes > 0 && int64(len(data)) > lim.MaxBytes {
		return nil, fmt.Errorf("trace: more than %d input bytes: %w", lim.MaxBytes, ErrTooLarge)
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad header %q", data[:min(len(data), len(magic))])
	}
	body := data[len(magic):]
	s := NewSlab(0)
	n, foot, err := decode(body, s, lim.MaxEvents)
	if err != nil {
		return nil, err
	}
	if foot == 0 {
		return nil, errors.New("trace: truncated stream: no footer")
	}
	total, _, err := uvarint(body, foot)
	if err != nil {
		return nil, fmt.Errorf("trace: truncated footer: %w", err)
	}
	if total != n {
		return nil, fmt.Errorf("trace: footer count %d != decoded %d", total, n)
	}
	if lim.MaxSites > 0 && s.Sites() > int(lim.MaxSites) {
		return nil, fmt.Errorf("trace: site %d exceeds the %d-site cap: %w", s.Sites()-1, lim.MaxSites, ErrTooLarge)
	}
	s.Seal()
	return s, nil
}
