package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The event-byte grammar shared by Writer, Slab and the sealed container
// (see Writer for the encoding). Exactly two loops decode it: decode, the
// general one, and replayCounts, its specialisation for *Counts.

// maxCode is the largest event code whose site fits in int32.
const maxCode = (math.MaxInt32+1)<<1 | 1

// The kinds of the previous event, which a run marker repeats.
const (
	noEvent = iota
	branchEvent
	switchEvent
)

// uvarint decodes the varint at buf[i:], returning the value and the
// offset past it.
func uvarint(buf []byte, i int) (uint64, int, error) {
	v, k := binary.Uvarint(buf[i:])
	if k <= 0 {
		return 0, i, fmt.Errorf("trace: malformed varint at byte %d", i)
	}
	return v, i + k, nil
}

// decode is the general decode loop. It feeds the events in buf to s —
// single events to RecordBranch, RLE repeat runs to RecordRun, switch
// events to RecordSwitch — and stops at the end of buf or after a footer
// code 0. It returns the number of events decoded and the offset just past
// the footer code, or 0 if buf holds none. Malformed varints, sites or
// outcomes beyond int32, a run marker before any event, and more than max
// events (0 = unlimited; ErrTooLarge) are errors; the events before the
// error have reached s. The cap is checked before every event and run is
// counted, so events never exceeds max and the count cannot wrap.
//
// The 1- and 2-byte varint forms are decoded inline: site IDs are small,
// so nearly every code takes one or two bytes.
func decode(buf []byte, s Sink, max uint64) (events uint64, foot int, err error) {
	if max == 0 {
		max = math.MaxUint64
	}
	var site, swSite, swOutcome int32
	var taken bool
	kind := noEvent
	for i := 0; i < len(buf); {
		var code uint64
		if b := buf[i]; b < 0x80 {
			code = uint64(b)
			i++
		} else if i+1 < len(buf) && buf[i+1] < 0x80 {
			code = uint64(b&0x7f) | uint64(buf[i+1])<<7
			i += 2
		} else {
			if code, i, err = uvarint(buf, i); err != nil {
				return events, 0, err
			}
			if code > maxCode {
				return events, 0, fmt.Errorf("trace: site in code %d overflows int32", code)
			}
		}
		if code == 0 {
			return events, i, nil
		}
		if code != 1 {
			if events == max {
				return events, 0, tooMany(max)
			}
			site, taken = int32(code>>1)-1, code&1 == 1
			kind = branchEvent
			events++
			s.RecordBranch(site, taken)
			continue
		}
		var n uint64
		if i < len(buf) && buf[i] < 0x80 {
			n = uint64(buf[i])
			i++
		} else if i+1 < len(buf) && buf[i] >= 0x80 && buf[i+1] < 0x80 {
			n = uint64(buf[i]&0x7f) | uint64(buf[i+1])<<7
			i += 2
		} else if n, i, err = uvarint(buf, i); err != nil {
			return events, 0, err
		}
		if n == 0 { // switch escape: uvarint(site+1) uvarint(outcome)
			var sc, oc uint64
			if sc, i, err = uvarint(buf, i); err != nil {
				return events, 0, err
			}
			if oc, i, err = uvarint(buf, i); err != nil {
				return events, 0, err
			}
			if sc == 0 || sc-1 > math.MaxInt32 || oc > math.MaxInt32 {
				return events, 0, fmt.Errorf("trace: bad switch event (site code %d, outcome %d)", sc, oc)
			}
			if events == max {
				return events, 0, tooMany(max)
			}
			swSite, swOutcome = int32(sc-1), int32(oc)
			kind = switchEvent
			events++
			s.RecordSwitch(swSite, swOutcome, 1)
			continue
		}
		if n > max-events {
			return events, 0, tooMany(max)
		}
		events += n
		switch kind {
		case branchEvent:
			s.RecordRun(site, taken, n)
		case switchEvent:
			s.RecordSwitch(swSite, swOutcome, n)
		default:
			return events, 0, errors.New("trace: run marker before any event")
		}
	}
	return events, 0, nil
}

func tooMany(max uint64) error {
	return fmt.Errorf("trace: more than %d events: %w", max, ErrTooLarge)
}

// mustUvarint is uvarint for bytes already validated by decode.
func mustUvarint(buf []byte, i int) (uint64, int) {
	v, j, err := uvarint(buf, i)
	if err != nil {
		panic(err)
	}
	return v, j
}

// replayCounts is decode specialised for *Counts, the service's "profile"
// scoring strategy and the experiment engine's per-seed count pass: each
// event or run lands directly in the slices, with no call per event. It
// trusts buf (a recorded or OpenSealed-validated slab) and c's size.
func replayCounts(buf []byte, c *Counts) {
	tk, nt := c.Taken, c.NotTaken
	var site int32
	var taken bool
	inSwitch := false
	for i := 0; i < len(buf); {
		var code uint64
		if b := buf[i]; b < 0x80 {
			code = uint64(b)
			i++
		} else if i+1 < len(buf) && buf[i+1] < 0x80 {
			code = uint64(b&0x7f) | uint64(buf[i+1])<<7
			i += 2
		} else {
			code, i = mustUvarint(buf, i)
		}
		if code != 1 {
			site, taken = int32(code>>1)-1, code&1 == 1
			inSwitch = false
			if taken {
				tk[site]++
			} else {
				nt[site]++
			}
			continue
		}
		var n uint64
		if i < len(buf) && buf[i] < 0x80 {
			n = uint64(buf[i])
			i++
		} else if i+1 < len(buf) && buf[i] >= 0x80 && buf[i+1] < 0x80 {
			n = uint64(buf[i]&0x7f) | uint64(buf[i+1])<<7
			i += 2
		} else {
			n, i = mustUvarint(buf, i)
		}
		if n == 0 { // switch escape: Counts ignores switch events entirely
			_, i = mustUvarint(buf, i)
			_, i = mustUvarint(buf, i)
			inSwitch = true
			continue
		}
		if inSwitch {
			continue
		}
		if taken {
			tk[site] += n
		} else {
			nt[site] += n
		}
	}
}
