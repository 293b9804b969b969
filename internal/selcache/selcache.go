// Package selcache provides a sharded, bounded, concurrency-safe LRU cache
// for cross-query selectivity reuse, with lock-free reads.
//
// The getSelectivity dynamic program (internal/core) memoizes per query run,
// so every sub-query of one query is estimated once — but the memo dies with
// the run. Workloads repeat predicate sets across queries (shared join
// sub-expressions, repeated filters), and for a fixed SIT pool and error
// model the chosen decomposition of a predicate set is a pure function of
// its structural signature. A process-wide cache keyed by
//
//	(error-model name, pool generation, packed predicate-set signature)
//
// therefore lets a run seed its memo from earlier queries and publish its
// own results back, without ever returning a stale or mismatched entry: the
// pool generation (sit.Pool.Generation) changes on every pool mutation and
// is unique across pools, so entries built against other pools or older pool
// contents simply never match.
//
// # Concurrency
//
// Each shard owns a fixed array of slots, allocated once at construction.
// A slot is an atomic pointer to an immutable entry (key and value); two
// parallel arrays of atomic words sit beside the slots: the key hashes,
// which act as a filter, and the recency ticks. Readers scan the shard's
// hashes, load the entry behind each match and compare its full key — no
// lock, no allocation, no write to any shared structure beyond the slot's
// recency tick and the hit/miss counters. Writers (Put, EvictIf,
// EvictAll, Reset) serialize on a per-shard mutex and overwrite slots in
// place, one atomic store each. A slot overwritten between a reader's hash
// check and its entry load makes the key comparison fail: the worst a race
// can cost is a miss, never a wrong value. A publish allocates only the
// new entry, so the cache produces no garbage beyond the values it is
// asked to hold.
//
// Recency is a global atomic clock: every access stamps the slot with a
// fresh, strictly increasing tick, and a full shard overwrites the slot
// with the minimum tick — exact LRU per shard, deterministic because ticks
// are unique. Counters (hits, misses, evictions) are atomic and exposed via
// Stats.
//
// The ticks live in one contiguous array per shard, so the victim search
// reads adjacent words instead of chasing every entry pointer. The price
// is one more benign race: a reader that matched an entry may stamp the
// slot's tick after a writer has replaced or removed that entry, so the
// newcomer (or the emptied slot) looks recently used. A late stamp can
// only change which entry a later Put evicts — never what a Get returns —
// and an empty slot is recognised by its nil entry, not by its tick, so it
// is still filled before any entry is evicted.
package selcache

import (
	"sync"
	"sync/atomic"

	"condsel/internal/faults"
)

// DefaultShards is the minimum shard count New selects. More shards are
// added as capacity grows so each shard's slot scan stays short.
const DefaultShards = 16

// targetShardCap is the per-shard slot count New aims for: small enough
// that a lookup's hash scan touches a few cache lines.
const targetShardCap = 64

// maxAutoShards caps New's automatic shard count.
const maxAutoShards = 4096

// emptyHash is the filter value of an empty slot. A key that hashes to it
// is still stored and found: the filter only narrows which slots' entries
// are loaded, and the entry pointer — nil for an empty slot — decides.
const emptyHash = 0

// Cache is a sharded, bounded LRU mapping keys of comparable type K to
// values of type V, hashed for shard selection by a caller-supplied
// function. All methods are safe for concurrent use; Get takes no locks.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	hash   func(K) uint64

	clock     atomic.Uint64 // global recency ticks, strictly increasing
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type shard[K comparable, V any] struct {
	mu     sync.Mutex // serializes writers (slot stores)
	hashes []atomic.Uint64
	ticks  []atomic.Uint64 // recency per slot, stamped by readers too
	slots  []atomic.Pointer[centry[K, V]]
}

// centry is one cached entry, immutable after publish.
type centry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding at most capacity entries, hashed by hash,
// with the shard count chosen automatically (~64 entries per shard, at
// least DefaultShards, at most one shard per entry). A capacity <= 0
// defaults to 4096.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Cache[K, V] {
	if capacity <= 0 {
		capacity = 4096
	}
	shards := (capacity + targetShardCap - 1) / targetShardCap
	if shards < DefaultShards {
		shards = DefaultShards
	}
	if shards > maxAutoShards {
		shards = maxAutoShards
	}
	return NewSharded[K, V](capacity, shards, hash)
}

// NewSharded returns a cache with an explicit shard count. Every shard's
// slots are allocated here, once.
func NewSharded[K comparable, V any](capacity, shards int, hash func(K) uint64) *Cache[K, V] {
	if capacity <= 0 {
		capacity = 4096
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > capacity {
		shards = capacity
	}
	perShard := (capacity + shards - 1) / shards
	hashes := make([]atomic.Uint64, shards*perShard)
	ticks := make([]atomic.Uint64, shards*perShard)
	slots := make([]atomic.Pointer[centry[K, V]], shards*perShard)
	c := &Cache[K, V]{shards: make([]shard[K, V], shards), hash: hash}
	for i := range c.shards {
		lo, hi := i*perShard, (i+1)*perShard
		c.shards[i].hashes = hashes[lo:hi:hi]
		c.shards[i].ticks = ticks[lo:hi:hi]
		c.shards[i].slots = slots[lo:hi:hi]
	}
	return c
}

// HashString is a 64-bit FNV-1a string hash, exported for callers composing
// shard hashes over string-bearing keys.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// HashUint64 mixes a 64-bit integer (splitmix64 finalizer), exported for
// callers composing shard hashes over integer-bearing keys.
func HashUint64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashCombine folds two 64-bit hashes into one with the golden-ratio
// mixer, exported for callers composing multi-part keys (the cluster ring
// derives virtual-node points from a node hash combined with the replica
// index this way). Non-commutative: order matters, as it should for
// (node, index) pairs.
func HashCombine(a, b uint64) uint64 {
	return HashUint64(a ^ (b*0x9e3779b97f4a7c15 + 0x517cc1b727220a95))
}

func (c *Cache[K, V]) shardFor(h uint64) *shard[K, V] {
	return &c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached value for key and whether it was present, marking
// the entry most recently used on a hit. The lookup is lock-free: it scans
// the shard's hash filter and compares the full key of each entry behind a
// matching hash, touching nothing shared but the slot's recency tick and
// the hit/miss counters. When the fault harness's CacheEvictStorm point
// fires, every entry is dropped ahead of the lookup — correctness layers
// above must treat the cache as advisory, and this is the hook that proves
// they do.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if faults.Active().Fire(faults.CacheEvictStorm) {
		c.EvictAll()
	}
	h := c.hash(key)
	s := c.shardFor(h)
	hashes := s.hashes
	for i := range hashes {
		if hashes[i].Load() != h {
			continue
		}
		// The slot may have been overwritten since its hash was read; the
		// key comparison on the loaded entry is what decides.
		if e := s.slots[i].Load(); e != nil && e.key == key {
			s.ticks[i].Store(c.clock.Add(1))
			c.hits.Add(1)
			return e.val, true
		}
	}
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Put stores the value under key, overwriting the shard's least recently
// used entry when the shard is full. Storing an existing key refreshes its
// value and recency. The slot is chosen under the shard's writer mutex —
// the slot already holding key, else an empty slot, else the minimum-tick
// slot — and overwritten in place; the new entry is the only allocation.
// The scan reads the shard's hash and tick arrays; it loads an entry only
// behind a hash equal to key's (a possible refresh) or to the empty-slot
// value (a possible empty slot).
func (c *Cache[K, V]) Put(key K, val V) {
	h := c.hash(key)
	e := &centry[K, V]{key: key, val: val}
	s := c.shardFor(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	empty, victim := -1, -1
	minTick := ^uint64(0)
	for i := range s.hashes {
		// The stored hash is consistent with the slot under the mutex, so
		// it filters before any entry load.
		if hv := s.hashes[i].Load(); hv == h || hv == emptyHash {
			old := s.slots[i].Load()
			if old == nil {
				if empty < 0 {
					empty = i
				}
				continue
			}
			if hv == h && old.key == key {
				s.ticks[i].Store(c.clock.Add(1))
				s.slots[i].Store(e)
				return
			}
		}
		// Exact LRU: ticks are unique, so the minimum is a deterministic
		// victim.
		if t := s.ticks[i].Load(); t < minTick {
			minTick, victim = t, i
		}
	}
	slot := empty
	if slot < 0 {
		slot = victim
		c.evictions.Add(1)
	}
	s.ticks[slot].Store(c.clock.Add(1))
	s.hashes[slot].Store(h)
	s.slots[slot].Store(e)
}

// Len returns the current number of cached entries across all shards.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		for j := range c.shards[i].slots {
			if c.shards[i].slots[j].Load() != nil {
				n++
			}
		}
	}
	return n
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Shards    int
	Capacity  int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters and occupancy.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Shards:    len(c.shards),
	}
	for i := range c.shards {
		st.Capacity += len(c.shards[i].slots)
	}
	return st
}

// EvictIf drops every entry whose key satisfies drop, counting them as
// evictions, and returns how many were dropped. The statistics lifecycle
// manager uses it after an epoch hot-swap to reclaim the capacity held by
// dead-generation entries (their generation-stamped keys can never be
// requested again, but untouched they would linger until LRU churn pushes
// them out). Each shard is scanned once under its writer mutex — drop is
// called exactly once per resident key — and dropped slots are cleared in
// place; concurrent lock-free readers are never blocked.
func (c *Cache[K, V]) EvictIf(drop func(key K) bool) int {
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		n := 0
		s.mu.Lock()
		for j := range s.slots {
			if e := s.slots[j].Load(); e != nil && drop(e.key) {
				s.slots[j].Store(nil)
				s.hashes[j].Store(emptyHash)
				s.ticks[j].Store(0)
				n++
			}
		}
		s.mu.Unlock()
		c.evictions.Add(int64(n))
		dropped += n
	}
	return dropped
}

// EvictAll drops every entry while counting them as evictions; unlike Reset
// the hit/miss counters survive. It models an operational cache flush (or an
// injected eviction storm): subsequent lookups miss and recompute, nothing
// more.
func (c *Cache[K, V]) EvictAll() {
	c.EvictIf(func(K) bool { return true })
}

// Reset drops every entry and zeroes the counters.
func (c *Cache[K, V]) Reset() {
	c.EvictAll()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}
