package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"condsel/internal/engine"
)

// TestCachedPathZeroAllocs is the in-repo half of the CI alloc-gate: once
// the cross-query cache is warm and the run pool primed, a full estimate —
// NewRun, GetSelectivity on every predicate, EstimateCardinality, Release —
// must allocate nothing, in both search modes and for both packed-key cache
// levels (selectivity entries and histogram joins).
func TestCachedPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and randomizes sync.Pool reuse; allocation counts are only meaningful without -race")
	}
	for _, n := range []int{6, 8, 10} {
		for _, exhaustive := range []bool{false, true} {
			mode := "singleton"
			if exhaustive {
				mode = "exhaustive"
			}
			t.Run(fmt.Sprintf("n=%d/mode=%s", n, mode), func(t *testing.T) {
				c := dpBenchCaseN(n)
				est := NewEstimator(c.cat, c.pool, Diff{})
				est.Exhaustive = exhaustive
				est.Cache = NewSelCache(1 << 14)
				full := c.q.All()
				// Warm pass 1 computes and publishes; pass 2 reaches cached
				// steady state (arena/pool sizes settled).
				for i := 0; i < 2; i++ {
					r := est.NewRun(c.q)
					r.GetSelectivity(full)
					r.EstimateCardinality(full)
					r.Release()
				}
				allocs := testing.AllocsPerRun(100, func() {
					r := est.NewRun(c.q)
					r.EstimateCardinality(full)
					r.Release()
				})
				if allocs != 0 {
					t.Fatalf("cached estimate path allocated %.1f objects/op, want 0", allocs)
				}
			})
		}
	}
}

// coldAllocCeiling caps TestColdPathAllocs' allocations per cold estimate.
// Building the matcher, the component index, every subset's Result and
// factor slice and every candidate's SIT slice on the heap cost 2475
// allocations per estimate in this case; run-owned scratch, winner-only
// results and one-allocation separable chain keys bring it to about 600.
const coldAllocCeiling = 700

// TestColdPathAllocs bounds the heap traffic of the selectivity-cache miss
// path: with the run pool warm, estimating a query whose filter constants
// were never seen before (so the full set and every filter-bearing subset
// miss the cross-query cache and run the DP) must stay under
// coldAllocCeiling allocations. What remains is mostly the cache publish
// (the entry and its encoded predicates and factors), the chain-key
// strings and the winners' SIT slices the published entries share.
func TestColdPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and randomizes sync.Pool reuse; allocation counts are only meaningful without -race")
	}
	c := dpBenchCaseN(8)
	// Fresh constants: every variant shifts each filter to a new range.
	const warm, measured = 4, 16
	variants := make([]*engine.Query, warm+measured)
	for v := range variants {
		preds := append([]engine.Pred(nil), c.q.Preds...)
		for k, p := range preds {
			if !p.IsJoin() {
				lo := p.Lo + int64(100*(v+1))
				preds[k] = engine.Filter(p.Attr, lo, lo+3)
			}
		}
		variants[v] = engine.NewQuery(c.cat, preds)
	}
	est := NewEstimator(c.cat, c.pool, Diff{})
	est.Cache = NewSelCache(4096)
	ResetHistJoinCache()
	op := func(q *engine.Query) {
		r := est.NewRun(q)
		r.EstimateCardinality(q.All())
		r.Release()
	}
	// A paused collector keeps the run pool (and its grown scratch) intact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, q := range variants[:warm] {
		op(q)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range variants[warm:] {
		op(q)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("cold estimate: %.1f allocs/op", perOp)
	if perOp > coldAllocCeiling {
		t.Fatalf("cold estimate allocated %.1f objects/op, want <= %d", perOp, coldAllocCeiling)
	}
}
