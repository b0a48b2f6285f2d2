package runner

import "hash/maphash"

// Store is the content-addressed artifact store contract: single-flight
// population keyed by string, immutable values. Cache, LRU and Sharded
// implement it, as does any store layered over them; Cached is the one
// typed entry point over every Store.
type Store interface {
	// Do returns the value stored under key, computing it with fn on
	// first request (single-flight: concurrent requests for a missing key
	// compute once and share the result).
	Do(key string, fn func() (any, error)) (any, error)
}

// Cached is the typed wrapper over Store.Do.
func Cached[V any](s Store, key string, fn func() (V, error)) (V, error) {
	v, err := s.Do(key, func() (any, error) { return fn() })
	if v == nil {
		var zero V
		return zero, err
	}
	return v.(V), err
}

// Sharded is an LRU artifact store split into a power-of-two number of
// independently locked shards, each with its own single-flight table and
// recency list. One global mutex serialises every lookup of a single LRU;
// under a concurrent request stream (the kralld batch path) that lock is
// the store's scalability ceiling. Sharding by key hash keeps each
// shard's critical section as short as LRU's while letting unrelated keys
// proceed in parallel.
//
// Behaviour per shard is exactly LRU's — errors are not cached, eviction
// is per-shard recency — so NewSharded(capacity, 1) is behaviourally
// identical to NewLRU(capacity) (pinned by TestShardedOneShardMatchesLRU).
// With more shards, eviction is local: a hot shard evicts its own least
// recent entry even while a cold shard has room. That is the usual
// sharding trade and is invisible to correctness, only to hit rate.
type Sharded struct {
	shards []*LRU
	seed   maphash.Seed
	mask   uint64
}

// NewSharded creates a store of at most capacity entries split across
// shards (rounded up to a power of two, minimum 1). Capacity is divided
// evenly; every shard holds at least one entry.
func NewSharded(capacity, shards int) *Sharded {
	n := 1
	for n < shards {
		n <<= 1
	}
	per := (capacity + n - 1) / n
	if per < 1 {
		per = 1
	}
	s := &Sharded{shards: make([]*LRU, n), seed: maphash.MakeSeed(), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i] = NewLRU(per)
	}
	return s
}

func (s *Sharded) shard(key string) *LRU {
	return s.shards[maphash.String(s.seed, key)&s.mask]
}

// Do implements Store on the shard owning key.
func (s *Sharded) Do(key string, fn func() (any, error)) (any, error) {
	return s.shard(key).Do(key, fn)
}

// Counters returns hit/miss totals summed over all shards.
func (s *Sharded) Counters() (hits, misses int64) {
	for _, sh := range s.shards {
		h, m := sh.Counters()
		hits += h
		misses += m
	}
	return hits, misses
}

// Len is the number of resident (or in-flight) entries across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Cap is the total capacity (per-shard capacity × shard count).
func (s *Sharded) Cap() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Cap()
	}
	return n
}

// NumShards is the shard count (a power of two).
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardCounters is one shard's occupancy and lookup totals, exported per
// shard on the service's /metrics.
type ShardCounters struct {
	Entries      int
	Hits, Misses int64
}

// Shards snapshots every shard's counters, in shard order.
func (s *Sharded) Shards() []ShardCounters {
	out := make([]ShardCounters, len(s.shards))
	for i, sh := range s.shards {
		h, m := sh.Counters()
		out[i] = ShardCounters{Entries: sh.Len(), Hits: h, Misses: m}
	}
	return out
}
