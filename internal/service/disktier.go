package service

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"strings"

	"repro/internal/diskstore"
	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/statemachine"
	"repro/internal/trace"
)

// tieredStore composes the in-memory sharded LRU with the optional disk
// tier and the optional cluster peer fetch, behind the same runner.Store
// contract the handlers already use. Lookup order on a memory miss:
//
//  1. disk — artifacts the memory tier evicted, or a previous process
//     wrote (the restart-warm path);
//  2. a healthy peer that owns the key (artifacts only) — a node serving
//     keys outside its ring range, e.g. while degraded, fetches the
//     bytes instead of re-recording;
//  3. the population function, whose product is written back to disk.
//
// All three run inside the memory tier's single-flight slot, so a
// stampede on a cold key still does the disk read, peer fetch, or
// recording exactly once. Compiled programs ("prog" keys) are
// deliberately not persisted: recompiling is cheap next to re-recording.
type tieredStore struct {
	mem  *runner.Sharded
	disk *diskstore.Store
	// fetchPeer asks the cluster for the raw disk payload of an artifact
	// key (nil when clustering is off). It returns false on any failure;
	// the store falls through to computing locally.
	fetchPeer func(key string) ([]byte, bool)
}

// Do implements runner.Store. Artifact and profile keys go through doFor,
// which knows the program; through Do no stored artifact or profile is
// trusted.
func (t *tieredStore) Do(key string, fn func() (any, error)) (any, error) {
	return t.do(key, nil, fn)
}

// doFor is Do for an artifact or profile key of program c. A disk or
// peer slab naming a site or switch outcome beyond c's, or a stored
// profile sized for another site count, cannot have come from that
// program, so it is a miss.
func doFor[T any](t *tieredStore, key string, c *compiled, fn func() (T, error)) (T, error) {
	v, err := t.do(key, c, func() (any, error) { return fn() })
	out, _ := v.(T)
	return out, err
}

// do is Do with c, the program of an artifact or profile key (nil when
// unknown, which no stored slab or profile passes).
func (t *tieredStore) do(key string, c *compiled, fn func() (any, error)) (any, error) {
	if t.disk == nil && t.fetchPeer == nil {
		return t.mem.Do(key, fn)
	}
	return t.mem.Do(key, func() (any, error) {
		if t.disk != nil {
			if v, ok := t.loadDisk(key, c); ok {
				return v, nil
			}
		}
		if t.fetchPeer != nil && kindOf(key) == "art" {
			if raw, ok := t.fetchPeer(key); ok {
				if art, err := decodeArtifact(raw, nil, c); err == nil {
					if t.disk != nil {
						_ = t.disk.Put(key, raw)
					}
					return art, nil
				}
			}
		}
		v, err := fn()
		if err == nil && t.disk != nil {
			t.saveDisk(key, v)
		}
		return v, err
	})
}

// kindOf is the namespace prefix of a content key ("art", "prof", ...).
func kindOf(key string) string {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return ""
}

// loadDisk materialises a disk entry back into its in-memory form. A
// payload that no longer decodes (format drift between releases) is just
// a miss; the recomputed value overwrites it. c is as for do.
func (t *tieredStore) loadDisk(key string, c *compiled) (any, bool) {
	switch kindOf(key) {
	case "art":
		m, ok := t.disk.Map(key)
		if !ok {
			return nil, false
		}
		art, err := decodeArtifact(m.Data, m, c)
		if err != nil {
			m.Close()
			return nil, false
		}
		return art, true
	case "prof":
		raw, ok := t.disk.Load(key)
		if !ok {
			return nil, false
		}
		var p profile.Profile
		if err := gobDecode(raw, &p); err != nil || p.CheckShape() != nil || c == nil || p.NSites != c.nsites {
			return nil, false
		}
		return &p, true
	case "mach":
		raw, ok := t.disk.Load(key)
		if !ok {
			return nil, false
		}
		var cs []statemachine.Choice
		if err := gobDecode(raw, &cs); err != nil {
			return nil, false
		}
		return cs, true
	case "score":
		raw, ok := t.disk.Load(key)
		if !ok {
			return nil, false
		}
		var w scoreWire
		if err := gobDecode(raw, &w); err != nil {
			return nil, false
		}
		return scoreEntry{nsites: w.NSites, score: w.Score}, true
	}
	return nil, false
}

// saveDisk persists a freshly computed value. Failures are counted by the
// disk store and otherwise ignored — the value is already in memory and
// correctness never depends on the disk tier.
func (t *tieredStore) saveDisk(key string, v any) {
	switch val := v.(type) {
	case *artifact:
		_ = t.disk.Put(key, encodeArtifact(val))
	case *profile.Profile:
		if raw, err := gobEncode(val); err == nil {
			_ = t.disk.Put(key, raw)
		}
	case []statemachine.Choice:
		if raw, err := gobEncode(val); err == nil {
			_ = t.disk.Put(key, raw)
		}
	case scoreEntry:
		if raw, err := gobEncode(scoreWire{NSites: val.nsites, Score: val.score}); err == nil {
			_ = t.disk.Put(key, raw)
		}
	}
}

// artifactPayload reads the raw disk payload of an artifact key, for
// serving to peers. The bytes go over the wire exactly as stored; the
// peer's decodeArtifact re-validates them.
func (t *tieredStore) artifactPayload(key string) ([]byte, bool) {
	if t.disk == nil || kindOf(key) != "art" {
		return nil, false
	}
	return t.disk.Load(key)
}

// scoreWire mirrors scoreEntry for gob (its fields are unexported).
type scoreWire struct {
	NSites int
	Score  RateBlock
}

// encodeArtifact lays out an artifact as run counters followed by the
// sealed slab container: uvarint branches, steps, checksum, one truncated
// byte, then the BLSLAB02 bytes. The slab part is the mmap-able region —
// decodeArtifact over a mapping replays events straight from the page
// cache. A BLSLAB01 entry written by an older release fails OpenSealed's
// magic check and is a miss.
func encodeArtifact(a *artifact) []byte {
	buf := make([]byte, 0, 32+a.slab.SealedSize())
	buf = binary.AppendUvarint(buf, a.branches)
	buf = binary.AppendUvarint(buf, a.steps)
	buf = binary.AppendUvarint(buf, a.checksum)
	if a.truncated {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return a.slab.AppendSealed(buf)
}

// decodeArtifact opens an encoded artifact of program c, rejecting a slab
// that names a site or switch outcome beyond c's (or any slab when c is
// nil), so replaying it into tables sized from c cannot overrun or balloon
// them. When data aliases a mapping, pin keeps it alive for the artifact's
// lifetime (the slab's event bytes alias data); pass nil for plain
// in-memory bytes.
func decodeArtifact(data []byte, pin *diskstore.Mapped, c *compiled) (*artifact, error) {
	if c == nil {
		return nil, fmt.Errorf("service: artifact of an unknown program")
	}
	a := &artifact{pin: pin}
	var vals [3]uint64
	i := 0
	for k := range vals {
		v, n := binary.Uvarint(data[i:])
		if n <= 0 {
			return nil, fmt.Errorf("service: truncated artifact header")
		}
		vals[k] = v
		i += n
	}
	if i >= len(data) {
		return nil, fmt.Errorf("service: truncated artifact header")
	}
	a.branches, a.steps, a.checksum = vals[0], vals[1], vals[2]
	a.truncated = data[i] == 1
	i++
	slab, err := trace.OpenSealed(data[i:])
	if err != nil {
		return nil, err
	}
	if slab.Sites() > c.nsites {
		return nil, fmt.Errorf("service: artifact slab names site %d of a %d-site program", slab.Sites()-1, c.nsites)
	}
	if slab.Outcomes() > c.outcomes {
		return nil, fmt.Errorf("service: artifact slab names switch outcome %d of a program with %d", slab.Outcomes()-1, c.outcomes)
	}
	a.slab = slab
	return a, nil
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
