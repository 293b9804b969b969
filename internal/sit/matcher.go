package sit

import (
	"math/bits"

	"condsel/internal/engine"
)

// Matcher resolves §3.3 candidate lookups for one query (one predicate
// slice) against a pool. It is the hot-path front end to Pool.Candidates:
// per attribute it translates every SIT's expression into a bitmask over the
// query's predicate positions once, so a lookup is a popcount per SIT
// instead of a containment scan, and it caches the resulting candidate
// slice per (attribute, conditioning set) — the getSelectivity DP requests
// the same few conditioning components over and over across the
// exponentially many subsets it visits. The same masks answer MatchedSet,
// the covered-predicates query the error models score with.
//
// Results are exactly Pool.Candidates' (same SITs, same order), and every
// lookup — cached or not — counts as one view-matching call on the pool, so
// the Figure 6 accounting keeps its meaning: the number of candidate
// requests the algorithm issues, not the number of scans performed.
//
// A Matcher is reusable scratch: Reset rebinds it to another query,
// clearing its maps in place and rewinding the arenas its masks and
// candidate slices are carved from, so a matcher kept across queries (as
// a pooled core.Run keeps one) stops allocating once its arenas have grown
// to the largest query it has served. Returned slices live in those arenas
// and are valid until the next Reset; callers must not modify them.
//
// The Matcher reads the pool index of the pool's current generation; like
// a Run it is single-goroutine state and must not outlive pool mutations.
type Matcher struct {
	pool  *Pool
	preds []engine.Pred
	slot  []int32 // by AttrID: 0 unbuilt, -1 no SITs on attr, k+1 → ams[k]
	ams   []attrMatcher
	cache map[matchKey]span // by (attr, relevant part of cond) → cands[lo:hi]

	masks   []engine.PredSet // arena for attrMatcher.keyed
	cands   []*SIT           // arena for cached candidate slices
	scratch []bool           // matched flags of the lookup in progress
}

// matchKey identifies a cached lookup. The conditioning set is reduced to
// the predicates some SIT on attr contains (attrMatcher.relevant): only
// those can change the outcome, so conditioning sets that differ elsewhere
// share one entry.
type matchKey struct {
	attr engine.AttrID
	cond engine.PredSet
}

// span locates a cached candidate slice in the cands arena. Arenas grow by
// append, so offsets stay valid across growth.
type span struct{ lo, hi int32 }

// attrMatcher is the per-attribute projection of the pool index onto one
// query's predicate positions.
type attrMatcher struct {
	idx *attrIndex

	// keyed[k]: positions of the query's predicates whose canonical value
	// belongs to idx.sits[k]'s expression set, so sits[k] matches a
	// conditioning set q exactly when |q ∩ keyed[k]| == idx.sizes[k] — the
	// same count MatchesSubset performs. relevant is the union of keyed.
	keyed    []engine.PredSet
	relevant engine.PredSet
}

// NewMatcher returns a matcher for the query's predicate slice over the
// pool's current contents. Attribute projections are built lazily on first
// lookup, so queries touching few attributes pay only for those.
func NewMatcher(p *Pool, preds []engine.Pred) *Matcher {
	m := new(Matcher)
	m.Reset(p, preds)
	return m
}

// Reset rebinds the matcher to another query's predicate slice over p,
// dropping every projection and cached lookup while keeping the map's
// buckets and the arenas' capacity. Reset(nil, nil) just releases the
// references a parked matcher would otherwise hold.
func (m *Matcher) Reset(p *Pool, preds []engine.Pred) {
	m.pool, m.preds = p, preds
	if m.cache == nil {
		m.cache = make(map[matchKey]span)
	}
	clear(m.cache)
	clear(m.slot)
	clear(m.ams)
	m.ams = m.ams[:0]
	m.masks = m.masks[:0]
	clear(m.cands)
	m.cands = m.cands[:0]
}

// forAttr returns (building on first use) the attribute's projection: the
// pool index lists the attribute's SITs, and each SIT's canonical
// expression set — the one predicate identity every containment test
// uses — maps the query's predicates onto a position mask.
func (m *Matcher) forAttr(attr engine.AttrID) *attrMatcher {
	if int(attr) >= len(m.slot) {
		m.slot = append(m.slot, make([]int32, int(attr)+1-len(m.slot))...)
	}
	switch k := m.slot[attr]; {
	case k > 0:
		return &m.ams[k-1]
	case k < 0:
		return nil
	}
	idx := m.pool.index().byAttr[attr]
	if idx == nil {
		m.slot[attr] = -1
		return nil
	}
	am := attrMatcher{idx: idx}
	start := len(m.masks)
	all := engine.FullPredSet(len(m.preds))
	for _, s := range idx.sits {
		keyed := s.exprSet.matched(m.preds, all)
		m.masks = append(m.masks, keyed)
		am.relevant |= keyed
	}
	am.keyed = m.masks[start:len(m.masks):len(m.masks)]
	m.ams = append(m.ams, am)
	m.slot[attr] = int32(len(m.ams))
	return &m.ams[len(m.ams)-1]
}

// Candidates returns the pool's candidate SITs for approximating a factor
// over attr conditioned on cond — bit-identical to
// Pool.Candidates(preds, attr, cond) — serving repeats from the per-query
// cache. The returned slice is shared; callers must not modify it.
func (m *Matcher) Candidates(attr engine.AttrID, cond engine.PredSet) []*SIT {
	m.pool.matchCalls.Add(1)
	am := m.forAttr(attr)
	if am == nil {
		return nil
	}
	key := matchKey{attr, cond & am.relevant}
	sp, ok := m.cache[key]
	if !ok {
		n := len(am.idx.sits)
		if cap(m.scratch) < n {
			m.scratch = make([]bool, n)
		}
		matched := m.scratch[:n]
		for k := range matched {
			matched[k] = bits.OnesCount64(uint64(key.cond&am.keyed[k])) == am.idx.sizes[k]
		}
		sp.lo = int32(len(m.cands))
		m.cands = am.idx.appendMaximal(m.cands, matched)
		sp.hi = int32(len(m.cands))
		m.cache[key] = sp
	}
	if sp.lo == sp.hi {
		return nil
	}
	return m.cands[sp.lo:sp.hi:sp.hi]
}

// MatchedSet returns the positions within q whose predicates belong to h's
// expression — exactly h.MatchedSet(preds, q) — by masking q with h's
// precomputed projection when h is one of the pool's SITs. SITs outside
// the pool index (derived SITs) take h.MatchedSet itself. It is not a
// view-matching call and leaves the pool's counter alone.
func (m *Matcher) MatchedSet(h *SIT, q engine.PredSet) engine.PredSet {
	if am := m.forAttr(h.Attr); am != nil {
		if k, ok := am.idx.pos[h]; ok {
			return am.keyed[k] & q
		}
	}
	return h.MatchedSet(m.preds, q)
}
