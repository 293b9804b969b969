package selcache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPutBasics(t *testing.T) {
	t.Parallel()
	c := New[string, int](64, HashString)
	if _, ok := c.Get("a"); ok {
		t.Fatalf("empty cache reported a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %v, %v", v, ok)
	}
	c.Put("a", 10) // refresh
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("refreshed value = %v, want 10", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	t.Parallel()
	// One shard makes the LRU order observable.
	c := NewSharded[string, int](2, 1, HashString)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a most recent
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatalf("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatalf("recently used a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatalf("newest entry c missing")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestBoundedUnderChurn(t *testing.T) {
	t.Parallel()
	const capacity = 100
	c := New[string, int](capacity, HashString)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if n := c.Len(); n > c.Stats().Capacity {
		t.Fatalf("cache grew to %d entries, capacity %d", n, c.Stats().Capacity)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under churn: %+v", st)
	}
}

func TestTinyCapacityRoundsUp(t *testing.T) {
	t.Parallel()
	c := New[string, string](1, HashString)
	c.Put("x", "v")
	if v, ok := c.Get("x"); !ok || v != "v" {
		t.Fatalf("tiny cache lost its entry: %v %v", v, ok)
	}
}

func TestReset(t *testing.T) {
	t.Parallel()
	c := New[string, int](16, HashString)
	c.Put("a", 1)
	c.Get("a")
	c.Get("zz")
	c.Reset()
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("stats after reset: %+v", st)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatalf("entry survived reset")
	}
}

// TestConcurrentMixed hammers one cache from many goroutines; run under
// -race this is the package's data-race proof. Values are derived from keys
// so every hit can be validated.
func TestConcurrentMixed(t *testing.T) {
	t.Parallel()
	const seed = 7 // constant seed: failures reproduce with the logged value
	c := New[string, int](256, HashString)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(512)
				key := fmt.Sprintf("k%d", k)
				if rng.Intn(2) == 0 {
					c.Put(key, k)
				} else if v, ok := c.Get(key); ok && v != k {
					t.Errorf("seed %d: Get(%s) = %d, want %d", seed, key, v, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("seed %d: entries %d exceed capacity %d", seed, st.Entries, st.Capacity)
	}
}

// TestEvictIf: predicate-driven eviction removes exactly the matching
// entries across shards, reports the count, and leaves the rest servable.
func TestEvictIf(t *testing.T) {
	t.Parallel()
	c := New[string, int](256, HashString)
	for i := 0; i < 40; i++ {
		gen := "g1"
		if i%2 == 0 {
			gen = "g2"
		}
		c.Put(fmt.Sprintf("model|%s|k%d", gen, i), i)
	}
	n := c.EvictIf(func(key string) bool { return strings.Contains(key, "|g1|") })
	if n != 20 {
		t.Fatalf("EvictIf dropped %d entries, want 20", n)
	}
	if c.Len() != 20 {
		t.Fatalf("Len = %d after eviction, want 20", c.Len())
	}
	for i := 0; i < 40; i++ {
		_, ok := c.Get(fmt.Sprintf("model|g1|k%d", i))
		if i%2 != 0 && ok {
			t.Fatalf("g1 entry k%d survived EvictIf", i)
		}
	}
	for i := 0; i < 40; i += 2 {
		if v, ok := c.Get(fmt.Sprintf("model|g2|k%d", i)); !ok || v != i {
			t.Fatalf("g2 entry k%d lost by EvictIf: %v %v", i, v, ok)
		}
	}
	// Nothing matches: no-op, zero count.
	if n := c.EvictIf(func(string) bool { return false }); n != 0 {
		t.Fatalf("no-match EvictIf dropped %d entries", n)
	}
}

// TestEvictIfConcurrent: EvictIf racing Put/Get neither corrupts the cache
// nor loses unrelated entries (run under -race).
func TestEvictIfConcurrent(t *testing.T) {
	t.Parallel()
	c := New[string, int](512, HashString)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("w|g%d|k%d", g%2, i)
				switch i % 3 {
				case 0:
					c.Put(key, i)
				case 1:
					c.Get(key)
				default:
					c.EvictIf(func(k string) bool { return strings.Contains(k, "|g0|") })
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > st.Capacity {
		t.Fatalf("entries %d exceed capacity %d after concurrent EvictIf", st.Entries, st.Capacity)
	}
}

// genKey is a generation-stamped structural key, mirroring how core.CacheKey
// carries the pool generation as an integer field.
type genKey struct {
	gen uint64
	k   int
}

func genKeyHash(k genKey) uint64 {
	return HashUint64(k.gen*0x9e3779b97f4a7c15 + uint64(k.k))
}

// TestCOWGenerationStress interleaves 16 lock-free readers with lifecycle-
// style generation bumps: a writer advances the current generation and
// EvictIf-retires all older ones, while readers Get/Put entries of whatever
// generation is current. Values encode their key's generation, so any
// cross-generation aliasing — a stale-generation value served for a newer
// key, as a slot overwritten between a reader's hash check and its entry
// load could produce without the full-key comparison — is detected
// immediately; and after the final retirement sweep no dead-generation
// entry may remain resident. Run under -race this is also the proof that
// the lock-free read path over in-place slot stores is data-race-free.
func TestCOWGenerationStress(t *testing.T) {
	t.Parallel()
	c := New[genKey, uint64](1<<10, genKeyHash)
	value := func(k genKey) uint64 { return k.gen*1_000_000 + uint64(k.k) }

	var cur atomic.Uint64
	cur.Store(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := genKey{gen: cur.Load(), k: rng.Intn(64)}
				if v, ok := c.Get(k); ok {
					if v != value(k) {
						t.Errorf("Get(%+v) served %d, want %d: stale/aliased generation value", k, v, value(k))
						return
					}
				} else {
					c.Put(k, value(k))
				}
			}
		}(g)
	}
	for bump := 0; bump < 200; bump++ {
		next := cur.Add(1)
		// Retire everything older than the new generation, exactly as the
		// lifecycle manager does after an epoch hot-swap. Readers may race
		// in a Put of a just-retired generation; the next sweep gets it.
		c.EvictIf(func(k genKey) bool { return k.gen < next })
	}
	close(stop)
	wg.Wait()
	final := cur.Load()
	if n := c.EvictIf(func(k genKey) bool { return k.gen < final }); n > 16 {
		// At most one straggler Put per reader goroutine can slip in after
		// the last in-loop sweep.
		t.Fatalf("%d dead-generation entries survived the retirement sweeps", n)
	}
	residual := 0
	c.EvictIf(func(k genKey) bool {
		if k.gen < final {
			residual++
		}
		return false
	})
	if residual != 0 {
		t.Fatalf("%d dead-generation entries resident after quiescent sweep", residual)
	}
}

// TestSharedShardAndSentinelHash: keys that share a shard, including one
// whose hash equals the empty-slot filter value, round-trip through Put,
// Get and EvictIf, and survive each other's eviction. The second hash
// sends every key to the sentinel value, so the filter matches every slot
// and only the full-key comparison tells entries apart.
func TestSharedShardAndSentinelHash(t *testing.T) {
	t.Parallel()
	// genKey{0, 0} hashes to HashUint64(0) == 0, the empty-slot value.
	zero := genKey{}
	if genKeyHash(zero) != emptyHash {
		t.Fatalf("test key hash %#x, want the sentinel %#x", genKeyHash(zero), emptyHash)
	}
	hashes := map[string]func(genKey) uint64{
		"genKeyHash": genKeyHash,
		"colliding":  func(genKey) uint64 { return emptyHash },
	}
	for name, hash := range hashes {
		c := NewSharded[genKey, uint64](8, 1, hash) // one shard: all keys share it
		keys := []genKey{zero, {0, 1}, {1, 0}, {1, 1}, {2, 5}}
		for i, k := range keys {
			c.Put(k, uint64(100+i))
		}
		for i, k := range keys {
			if v, ok := c.Get(k); !ok || v != uint64(100+i) {
				t.Fatalf("%s: Get(%+v) = %d, %v; want %d", name, k, v, ok, 100+i)
			}
		}
		c.Put(zero, 7) // refresh in place: no second copy, no eviction
		if v, _ := c.Get(zero); v != 7 || c.Len() != len(keys) || c.Stats().Evictions != 0 {
			t.Fatalf("%s: refresh: value %d, Len %d, evictions %d", name, v, c.Len(), c.Stats().Evictions)
		}
		if n := c.EvictIf(func(k genKey) bool { return k.gen == 0 }); n != 2 {
			t.Fatalf("%s: EvictIf(gen 0) dropped %d, want 2", name, n)
		}
		for i, k := range keys {
			v, ok := c.Get(k)
			if k.gen == 0 {
				if ok {
					t.Fatalf("%s: evicted key %+v still served %d", name, k, v)
				}
				continue
			}
			if !ok || v != uint64(100+i) {
				t.Fatalf("%s: survivor Get(%+v) = %d, %v; want %d", name, k, v, ok, 100+i)
			}
		}
		c.Put(zero, 9) // the sentinel-hash key is storable again after eviction
		if v, ok := c.Get(zero); !ok || v != 9 {
			t.Fatalf("%s: re-Put sentinel-hash key: %d, %v", name, v, ok)
		}
	}
}

// TestEmptiedSlotBeatsLateStamp: a slot emptied by EvictIf or Reset is
// refilled before any entry is evicted, even after a late reader has
// stamped its tick (a reader that matched the old entry just before the
// writer removed it). The tick array is not what marks a slot empty.
func TestEmptiedSlotBeatsLateStamp(t *testing.T) {
	t.Parallel()
	lateStampAll := func(c *Cache[string, int]) {
		s := &c.shards[0]
		for i := range s.ticks {
			s.ticks[i].Store(c.clock.Add(1))
		}
	}
	keys := []string{"a", "b", "c", "d"}

	c := NewSharded[string, int](len(keys), 1, HashString)
	for i, k := range keys {
		c.Put(k, i)
	}
	if n := c.EvictIf(func(k string) bool { return k == "b" }); n != 1 {
		t.Fatalf("EvictIf dropped %d, want 1", n)
	}
	lateStampAll(c)
	c.Put("e", 4)
	for i, k := range append(keys, "e") {
		if v, ok := c.Get(k); k != "b" && (!ok || v != i) {
			t.Fatalf("after EvictIf and a late stamp: Get(%s) = %d, %v; want %d", k, v, ok, i)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want only the EvictIf one", ev)
	}

	c.Reset()
	lateStampAll(c)
	for i, k := range keys {
		c.Put(k, 10+i)
	}
	for i, k := range keys {
		if v, ok := c.Get(k); !ok || v != 10+i {
			t.Fatalf("after Reset and a late stamp: Get(%s) = %d, %v; want %d", k, v, ok, 10+i)
		}
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("refilling a Reset cache evicted %d entries", ev)
	}
}

// TestOneShardStress mixes Get, Put and EvictIf on a single small shard
// from many goroutines, so slots are overwritten and emptied under readers
// all the time (and late stamps land on the wrong entries). Every value
// encodes its key: a Get must never return a value stored under another
// key. Run with -race it is also the tick array's data-race proof.
func TestOneShardStress(t *testing.T) {
	t.Parallel()
	const seed = 11 // constant seed: failures reproduce with the logged value
	c := NewSharded[int, int](8, 1, func(k int) uint64 { return uint64(k % 3) })
	value := func(k int) int { return 1000*k + 7 }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for i := 0; i < 3000; i++ {
				k := rng.Intn(24)
				switch op := rng.Intn(10); {
				case op < 5:
					if v, ok := c.Get(k); ok && v != value(k) {
						t.Errorf("seed %d: Get(%d) = %d, want %d", seed, k, v, value(k))
						return
					}
				case op < 9:
					c.Put(k, value(k))
				default:
					c.EvictIf(func(key int) bool { return key%5 == k%5 })
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 8 {
		t.Fatalf("seed %d: %d entries in an 8-slot shard", seed, n)
	}
}

// fullCache returns a one-shard cache of capacity n filled with keys of
// generation 1, so every Put of another generation evicts.
func fullCache(n int) *Cache[genKey, uint64] {
	c := NewSharded[genKey, uint64](n, 1, genKeyHash)
	for i := 0; i < n; i++ {
		c.Put(genKey{gen: 1, k: i}, uint64(i))
	}
	return c
}

// TestPutGetAllocs: publishing into a full shard allocates at most the new
// entry, and a lookup allocates nothing, hit or miss.
func TestPutGetAllocs(t *testing.T) {
	c := fullCache(64)
	k := 0
	if n := testing.AllocsPerRun(1000, func() {
		k++
		c.Put(genKey{gen: 2, k: k}, uint64(k))
	}); n > 1 {
		t.Fatalf("Put into a full shard: %.1f allocs/op, want <= 1", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.Get(genKey{gen: 2, k: k})
		c.Get(genKey{gen: 3, k: k})
	}); n != 0 {
		t.Fatalf("Get: %.1f allocs/op, want 0", n)
	}
}

var sinkU64 uint64

func BenchmarkGetHit(b *testing.B) {
	c := fullCache(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := c.Get(genKey{gen: 1, k: i & 63})
		sinkU64 += v
	}
}

func BenchmarkPutFull(b *testing.B) {
	c := fullCache(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(genKey{gen: 2, k: i}, uint64(i))
	}
}
