package engine

import "math/bits"

// CompIndex answers connected-component queries over subsets of one query's
// predicate slice using precomputed adjacency bitmasks, memoizing per subset.
// It exists for the getSelectivity hot path: the dynamic program asks for the
// components of every predicate subset it visits (and error models ask for
// the component containing a given table), so the per-call union-find of
// Components — with its maps and per-predicate table scans — dominates the
// decomposition-analysis time. A CompIndex pays the adjacency construction
// once per query and then answers each distinct subset once, by bitmask
// flood-fill, returning the memoized slices on every later request.
//
// Results are exactly those of Components (same partition, same order —
// components ascend by smallest member, which is the order the peeling loop
// discovers them in). Callers must treat returned slices as read-only.
//
// A CompIndex is reusable scratch: Reset rebinds it to another predicate
// slice, clearing the memo in place and rewinding the arenas the memoized
// partitions live in, so an index kept across queries (as a pooled
// core.Run keeps one) stops allocating once its arenas have grown to the
// largest query it has served. Returned slices are valid until the next
// Reset. Like the run memo it serves, a CompIndex is single-goroutine
// state.
type CompIndex struct {
	adj    []PredSet  // adj[i]: predicates sharing a table with predicate i
	tables []TableSet // tables[i]: tables referenced by predicate i
	memo   map[PredSet]compSpan

	// Arenas holding every memoized partition: component k of an entry is
	// sets[lo+k], with its tables at tabs[lo+k]. They grow by append, so
	// the offsets stay valid across growth.
	sets []PredSet
	tabs []TableSet
}

// compSpan locates one subset's memoized partition in the arenas.
type compSpan struct{ lo, hi int32 }

// NewCompIndex builds the adjacency index for the predicate slice.
func NewCompIndex(c *Catalog, preds []Pred) *CompIndex {
	ci := new(CompIndex)
	ci.Reset(c, preds)
	return ci
}

// Reset rebuilds the adjacency index for another predicate slice, keeping
// the memo's buckets and every slice's capacity.
func (ci *CompIndex) Reset(c *Catalog, preds []Pred) {
	n := len(preds)
	if cap(ci.adj) < n {
		ci.adj = make([]PredSet, n)
		ci.tables = make([]TableSet, n)
	}
	ci.adj, ci.tables = ci.adj[:n], ci.tables[:n]
	clear(ci.adj)
	if ci.memo == nil {
		ci.memo = make(map[PredSet]compSpan)
	}
	clear(ci.memo)
	ci.sets, ci.tabs = ci.sets[:0], ci.tabs[:0]
	for i := range preds {
		ci.tables[i] = preds[i].Tables(c)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !ci.tables[i].Disjoint(ci.tables[j]) {
				ci.adj[i] = ci.adj[i].Add(j)
				ci.adj[j] = ci.adj[j].Add(i)
			}
		}
	}
}

// entry returns (computing and memoizing) the subset's partition.
func (ci *CompIndex) entry(set PredSet) compSpan {
	if e, ok := ci.memo[set]; ok {
		return e
	}
	e := compSpan{lo: int32(len(ci.sets))}
	for rest := set; rest != 0; {
		seed := PredSet(1) << uint(bits.TrailingZeros64(uint64(rest)))
		comp, frontier := seed, seed
		var tabs TableSet
		for frontier != 0 {
			var next PredSet
			for f := uint64(frontier); f != 0; f &= f - 1 {
				j := bits.TrailingZeros64(f)
				tabs = tabs.Union(ci.tables[j])
				next = next.Union(ci.adj[j])
			}
			next = next.Intersect(set).Minus(comp)
			comp = comp.Union(next)
			frontier = next
		}
		ci.sets = append(ci.sets, comp)
		ci.tabs = append(ci.tabs, tabs)
		rest = rest.Minus(comp)
	}
	e.hi = int32(len(ci.sets))
	ci.memo[set] = e
	return e
}

// Components returns the connected components of the subset, identical to
// Components(cat, preds, set) in value and order. The returned slice is
// shared with the memo; callers must not modify it.
func (ci *CompIndex) Components(set PredSet) []PredSet {
	e := ci.entry(set)
	if e.lo == e.hi {
		return nil
	}
	return ci.sets[e.lo:e.hi:e.hi]
}

// ComponentWith returns the component of set whose referenced tables include
// t, or the empty set when no component touches t. This is the "side
// condition" lookup of the error models: predicates in table-disjoint
// components cannot influence an attribute of t.
func (ci *CompIndex) ComponentWith(set PredSet, t TableID) PredSet {
	e := ci.entry(set)
	for k := e.lo; k < e.hi; k++ {
		if ci.tabs[k].Has(t) {
			return ci.sets[k]
		}
	}
	return 0
}
