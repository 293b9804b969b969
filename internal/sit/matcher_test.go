package sit

import (
	"math/rand"
	"testing"

	"condsel/internal/engine"
)

// matcherCase builds a random catalog, query predicates and a workload pool.
func matcherCase(rng *rand.Rand) (*engine.Catalog, []engine.Pred, *Pool) {
	cat := engine.NewCatalog()
	nTables := 2 + rng.Intn(3)
	for t := 0; t < nTables; t++ {
		rows := 10 + rng.Intn(30)
		cols := make([]*engine.Column, 3)
		for ci := range cols {
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = int64(rng.Intn(12))
			}
			cols[ci] = &engine.Column{Name: string(rune('a' + ci)), Vals: vals}
		}
		cat.MustAddTable(&engine.Table{Name: string(rune('A' + t)), Cols: cols})
	}
	var preds []engine.Pred
	for t := 1; t < nTables; t++ {
		preds = append(preds, engine.Join(
			cat.AttrsOfTable(engine.TableID(t - 1))[rng.Intn(3)],
			cat.AttrsOfTable(engine.TableID(t))[rng.Intn(3)]))
	}
	for f := 0; f < 1+rng.Intn(3); f++ {
		a := cat.AttrsOfTable(engine.TableID(rng.Intn(nTables)))[rng.Intn(3)]
		lo := int64(rng.Intn(12))
		preds = append(preds, engine.Filter(a, lo, lo+int64(rng.Intn(6))))
	}
	q := engine.NewQuery(cat, preds)
	pool := BuildWorkloadPool(NewBuilder(cat), []*engine.Query{q}, 2)
	return cat, preds, pool
}

// TestMatcherMatchesPoolCandidates: for every attribute and every
// conditioning subset, the Matcher returns exactly what Pool.Candidates
// returns — same SIT pointers in the same order — on cold and cached
// lookups alike, and its MatchedSet agrees with SIT.MatchedSet. One
// matcher serves every trial through Reset, so stale projections or cached
// lookups from an earlier query would show.
func TestMatcherMatchesPoolCandidates(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	m := new(Matcher)
	for trial := 0; trial < 40; trial++ {
		cat, preds, pool := matcherCase(rng)
		m.Reset(pool, preds)
		full := engine.FullPredSet(len(preds))
		var attrs []engine.AttrID
		for ti := 0; ti < cat.NumTables(); ti++ {
			attrs = append(attrs, cat.AttrsOfTable(engine.TableID(ti))...)
		}
		for pass := 0; pass < 2; pass++ { // pass 1 is served from the cache
			for _, attr := range attrs {
				for cond := engine.PredSet(0); cond <= full; cond++ {
					want := pool.Candidates(preds, attr, cond)
					got := m.Candidates(attr, cond)
					if len(got) != len(want) {
						t.Fatalf("trial %d pass %d attr %d cond %v: %d candidates, want %d",
							trial, pass, attr, pass, len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("trial %d pass %d attr %d cond %v: candidate %d = %s, want %s",
								trial, pass, attr, cond, k, got[k].ID(), want[k].ID())
						}
					}
					for _, h := range pool.OnAttr(attr) {
						if got, want := m.MatchedSet(h, cond), h.MatchedSet(preds, cond); got != want {
							t.Fatalf("trial %d attr %d cond %v: MatchedSet(%s) = %v, want %v",
								trial, attr, cond, h.ID(), got, want)
						}
					}
				}
			}
		}
	}
}

// TestMatcherCountsMatchCalls: every Matcher lookup — cached or not — bumps
// the pool's view-matching counter, preserving the Figure 6 metric.
func TestMatcherCountsMatchCalls(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	cat, preds, pool := matcherCase(rng)
	m := NewMatcher(pool, preds)
	attr := cat.AttrsOfTable(0)[0]
	pool.ResetMatchCalls()
	m.Candidates(attr, 0)
	m.Candidates(attr, 0) // cache hit still counts
	if got := pool.MatchCalls(); got != 2 {
		t.Fatalf("MatchCalls = %d, want 2", got)
	}
}

// TestMatcherResetZeroAllocs: a matcher rebound to a query of the size it
// has already served allocates nothing — Reset clears its map and rewinds
// its arenas, and the lookups refill them in place.
func TestMatcherResetZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cat, preds, pool := matcherCase(rng)
	full := engine.FullPredSet(len(preds))
	var attrs []engine.AttrID
	for ti := 0; ti < cat.NumTables(); ti++ {
		attrs = append(attrs, cat.AttrsOfTable(engine.TableID(ti))...)
	}
	m := NewMatcher(pool, preds)
	lookups := func() {
		m.Reset(pool, preds)
		for _, attr := range attrs {
			for cond := engine.PredSet(0); cond <= full; cond++ {
				for _, h := range m.Candidates(attr, cond) {
					m.MatchedSet(h, cond)
				}
			}
		}
	}
	lookups() // grow the map and arenas once
	if n := testing.AllocsPerRun(20, lookups); n != 0 {
		t.Fatalf("Reset+Candidates allocated %.1f objects/op, want 0", n)
	}
}
