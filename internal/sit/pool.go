package sit

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"condsel/internal/engine"
	"condsel/internal/faults"
)

// poolGen hands out globally unique generation stamps. Every pool mutation
// (creation, Add, Add2D) takes a fresh stamp, so a pool's Generation
// uniquely identifies its exact contents across all pools in the process —
// the property the cross-query selectivity cache keys rely on.
var poolGen atomic.Uint64

// Pool is a set of available SITs with the candidate-matching rules of
// §3.3. It also counts view-matching calls, the efficiency metric of the
// paper's Figure 6.
//
// Histograms are validated on registration (cheap structural checks) and
// lazily, in full, on first use (when the candidate index touches them). A
// SIT that fails validation is quarantined: excluded from Base/OnAttr/SITs
// and from every candidate lookup, counted, and reported through Health —
// one corrupt statistic degrades the estimates that would have used it
// instead of poisoning every estimate downstream. Quarantining bumps the
// pool generation, so cross-query cache entries computed against the
// pre-quarantine contents can never be served again (see Generation).
//
// Concurrency: a fully built Pool is safe for concurrent readers (Candidates,
// Candidates2D, Base, OnAttr, SITs, …) — the match-call counter, generation
// and quarantine set are internally synchronized and everything else is
// read-only after construction. Mutations (Add, Add2D) must not race with
// readers.
type Pool struct {
	Cat *engine.Catalog

	byAttr map[engine.AttrID][]*SIT
	byID   map[string]*SIT

	// Two-dimensional SITs (§3.3 Example 3), keyed by their (X, Y) pair.
	by2D   map[[2]engine.AttrID][]*SIT2D
	byID2D map[string]*SIT2D

	// matchCalls counts invocations of the view-matching routine
	// (Candidates/Candidates2D). Reset with ResetMatchCalls.
	matchCalls atomic.Int64

	// gen is the pool's content stamp; see poolGen. Atomic because
	// quarantining — which bumps it — may happen during concurrent reads.
	gen atomic.Uint64

	// idx caches the per-attribute candidate index for the current
	// generation; see poolIndex. Stale indexes (generation mismatch) are
	// rebuilt on demand, so mutations need no explicit invalidation.
	idx atomic.Pointer[poolIndex]

	// qmu guards the quarantine set and the lazy deep-validation ledger.
	qmu     sync.Mutex
	quar    map[string]QuarantineRecord // quarantined SITs by ID
	checked map[string]bool             // IDs whose histograms passed the deep check
}

// QuarantineRecord describes one quarantined statistic.
type QuarantineRecord struct {
	ID     string // canonical SIT identity (SIT.ID)
	Reason string // why validation rejected it
}

// Health is a point-in-time snapshot of the pool's statistic hygiene.
type Health struct {
	SITs        int                // healthy 1-D statistics (quarantined excluded)
	Quarantined int                // statistics removed from service
	Generation  uint64             // current content stamp
	Records     []QuarantineRecord // quarantined statistics, sorted by ID
}

// poolIndex is the pre-built per-attribute candidate index: for every
// attribute, the attribute's SITs in canonical (ID) order together with the
// precomputed strict-superset relation among their expressions. Candidate
// lookups then reduce to a matching pass plus a maximality check against the
// precomputed supersets — no per-call sorting and no quadratic containment
// scan. The index is immutable once built and keyed by the pool generation,
// so concurrent readers of a stale index simply rebuild it (idempotent; the
// last writer wins).
type poolIndex struct {
	gen    uint64
	byAttr map[engine.AttrID]*attrIndex
}

// attrIndex indexes one attribute's SITs.
type attrIndex struct {
	sits []*SIT // sorted by ID — the order Candidates must return

	// supersets[k] lists positions j within sits such that sits[k]'s
	// expression is a strict subset of sits[j]'s (the §3.3 maximality
	// relation: k is dropped whenever any of supersets[k] also matches).
	supersets [][]int32

	// sizes[k] is the size of sits[k]'s expression set, and pos inverts
	// sits (SIT → k): the per-query Matcher tests containment as a mask
	// popcount against sizes and finds a scored SIT's mask through pos.
	sizes []int
	pos   map[*SIT]int32
}

// index returns the candidate index for the pool's current contents,
// (re)building it when the generation moved. The build is also where lazy
// histogram validation happens: every not-yet-checked SIT gets a full
// Histogram.Validate pass, failures are quarantined (bumping the
// generation) and the index is rebuilt without them, so corrupt statistics
// never reach a candidate lookup. Concurrent rebuilds of a stale index are
// idempotent; the last writer wins.
func (p *Pool) index() *poolIndex {
	for {
		gen := p.gen.Load()
		if ix := p.idx.Load(); ix != nil && ix.gen == gen {
			return ix
		}
		ix, bad := p.buildIndex(gen)
		if len(bad) > 0 {
			for _, rec := range bad {
				p.quarantine(rec.ID, rec.Reason)
			}
			continue // rebuild against the post-quarantine contents
		}
		if p.gen.Load() != gen {
			continue // concurrent mutation or quarantine; rebuild
		}
		p.idx.Store(ix)
		return ix
	}
}

// buildIndex constructs the candidate index for the given generation,
// excluding quarantined SITs and deep-validating any SIT not yet checked.
// Newly detected corruption is returned (in deterministic ID order) for the
// caller to quarantine rather than mutating state mid-build.
func (p *Pool) buildIndex(gen uint64) (*poolIndex, []QuarantineRecord) {
	var bad []QuarantineRecord
	ix := &poolIndex{gen: gen, byAttr: make(map[engine.AttrID]*attrIndex, len(p.byAttr))}
	//lint:ignore detmaprange each iteration builds one keyed attrIndex independently (sits re-sorted by ID inside); the output map is order-free and newly-bad records are re-sorted by ID below
	for attr, sits := range p.byAttr {
		ai := &attrIndex{sits: make([]*SIT, 0, len(sits))}
		for _, s := range sits {
			if p.isQuarantined(s.ID()) {
				continue
			}
			if err := p.deepValidate(s); err != nil {
				bad = append(bad, QuarantineRecord{ID: s.ID(), Reason: err.Error()})
				continue
			}
			ai.sits = append(ai.sits, s)
		}
		sort.Slice(ai.sits, func(i, j int) bool { return ai.sits[i].ID() < ai.sits[j].ID() })
		ai.supersets = make([][]int32, len(ai.sits))
		ai.sizes = make([]int, len(ai.sits))
		ai.pos = make(map[*SIT]int32, len(ai.sits))
		for k, s := range ai.sits {
			ai.sizes[k] = len(s.exprSet)
			ai.pos[s] = int32(k)
			for j, t := range ai.sits {
				if j != k && s.ExprSubsetOf(t) && t.ExprSize() > s.ExprSize() {
					ai.supersets[k] = append(ai.supersets[k], int32(j))
				}
			}
		}
		ix.byAttr[attr] = ai
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].ID < bad[j].ID })
	return ix, bad
}

// deepValidate runs the full histogram check for the SIT once per pool
// (first use), consulting the fault-injection harness so tests can simulate
// statistics that rot after registration.
func (p *Pool) deepValidate(s *SIT) error {
	id := s.ID()
	p.qmu.Lock()
	done := p.checked[id]
	p.qmu.Unlock()
	if done {
		return nil
	}
	if fs := faults.Active(); fs.Fire(faults.CorruptBucket) {
		return faults.Injected{Point: faults.CorruptBucket}
	}
	if err := s.Hist.Validate(); err != nil {
		return fmt.Errorf("histogram: %v", err)
	}
	p.qmu.Lock()
	if p.checked == nil {
		p.checked = make(map[string]bool)
	}
	p.checked[id] = true
	p.qmu.Unlock()
	return nil
}

// quarantine records the SIT as unusable and bumps the pool generation so
// indexes rebuild without it and generation-keyed cache entries computed
// against the old contents expire. Idempotent per ID.
func (p *Pool) quarantine(id, reason string) {
	p.qmu.Lock()
	if p.quar == nil {
		p.quar = make(map[string]QuarantineRecord)
	}
	if _, dup := p.quar[id]; dup {
		p.qmu.Unlock()
		return
	}
	p.quar[id] = QuarantineRecord{ID: id, Reason: reason}
	p.qmu.Unlock()
	p.gen.Store(poolGen.Add(1))
}

// isQuarantined reports whether the SIT ID is quarantined.
func (p *Pool) isQuarantined(id string) bool {
	p.qmu.Lock()
	_, ok := p.quar[id]
	p.qmu.Unlock()
	return ok
}

// Quarantine removes the statistic with the given canonical ID from service
// (operators use it to pull a stat suspected stale without rebuilding the
// pool). It reports whether the ID named a pool statistic not already
// quarantined.
func (p *Pool) Quarantine(id, reason string) bool {
	if _, ok := p.byID[id]; !ok {
		return false
	}
	if p.isQuarantined(id) {
		return false
	}
	p.quarantine(id, reason)
	return true
}

// HealthSnapshot reports the pool's statistic hygiene: healthy and
// quarantined counts plus one record per quarantined SIT, in ID order.
func (p *Pool) HealthSnapshot() Health {
	p.qmu.Lock()
	records := make([]QuarantineRecord, 0, len(p.quar))
	for _, rec := range p.quar {
		records = append(records, rec)
	}
	p.qmu.Unlock()
	sort.Slice(records, func(i, j int) bool { return records[i].ID < records[j].ID })
	healthy := 0
	//lint:ignore detmaprange the body only increments a count; the result is independent of iteration order
	for id := range p.byID {
		if !p.isQuarantined(id) {
			healthy++
		}
	}
	return Health{
		SITs:        healthy,
		Quarantined: len(records),
		Generation:  p.gen.Load(),
		Records:     records,
	}
}

// HealthCounts is HealthSnapshot without the per-statistic records: the
// counts a metrics scrape wants, cheap enough to read on every scrape (no
// per-record allocation, one lock acquisition).
func (p *Pool) HealthCounts() (sits, quarantined int, generation uint64) {
	p.qmu.Lock()
	quarantined = len(p.quar)
	//lint:ignore detmaprange the body only increments a count; the result is independent of iteration order
	for id := range p.byID {
		if _, q := p.quar[id]; !q {
			sits++
		}
	}
	p.qmu.Unlock()
	return sits, quarantined, p.gen.Load()
}

// NewPool returns an empty pool over the catalog.
func NewPool(cat *engine.Catalog) *Pool {
	p := &Pool{
		Cat:     cat,
		byAttr:  make(map[engine.AttrID][]*SIT),
		byID:    make(map[string]*SIT),
		quar:    make(map[string]QuarantineRecord),
		checked: make(map[string]bool),
	}
	p.gen.Store(poolGen.Add(1))
	return p
}

// Generation returns the pool's content stamp: a process-wide unique value
// that changes on every mutation (quarantining included). Two pools never
// share a generation, and a pool's generation after an Add differs from
// before, so (generation, predicate-set) cache keys can never alias across
// pools or pool versions — and can never serve values computed from a
// statistic that was later quarantined.
func (p *Pool) Generation() uint64 { return p.gen.Load() }

// quickValidate is the cheap registration-time check: O(1) structural
// sanity on the histogram header. The full O(buckets) pass runs lazily on
// first use (see deepValidate), keeping bulk pool construction cheap.
func quickValidate(s *SIT) error {
	h := s.Hist
	if h == nil {
		return nil // expression-only SIT (identity/spec use); nothing to check
	}
	if math.IsNaN(h.Rows) || math.IsInf(h.Rows, 0) || h.Rows < 0 {
		return fmt.Errorf("histogram: rows %v not finite and non-negative", h.Rows)
	}
	if math.IsNaN(h.TotalRows) || math.IsInf(h.TotalRows, 0) || h.TotalRows < 0 {
		return fmt.Errorf("histogram: total rows %v not finite and non-negative", h.TotalRows)
	}
	return nil
}

// Add inserts s unless an identical SIT (same attribute and expression) is
// already present; it reports whether the SIT was added. A SIT failing the
// registration-time structural check is not added; it is recorded as
// quarantined so Health surfaces the rejection.
func (p *Pool) Add(s *SIT) bool {
	id := s.ID()
	if _, dup := p.byID[id]; dup {
		return false
	}
	if err := quickValidate(s); err != nil {
		p.quarantine(id, err.Error())
		return false
	}
	p.byID[id] = s
	p.byAttr[s.Attr] = append(p.byAttr[s.Attr], s)
	p.gen.Store(poolGen.Add(1))
	return true
}

// Size returns the number of SITs in the pool (base histograms included).
func (p *Pool) Size() int { return len(p.byID) }

// Base returns the base-table histogram SIT for attr, or nil if absent or
// quarantined.
func (p *Pool) Base(attr engine.AttrID) *SIT {
	ai := p.index().byAttr[attr]
	if ai == nil {
		return nil
	}
	for _, s := range ai.sits {
		if s.IsBase() {
			return s
		}
	}
	return nil
}

// OnAttr returns all SITs over attr (base histogram included), in
// deterministic order.
func (p *Pool) OnAttr(attr engine.AttrID) []*SIT {
	ai := p.index().byAttr[attr]
	if ai == nil {
		return nil
	}
	return append([]*SIT(nil), ai.sits...)
}

// SITs returns every non-quarantined SIT in the pool in deterministic order.
func (p *Pool) SITs() []*SIT {
	out := make([]*SIT, 0, len(p.byID))
	//lint:ignore detmaprange the collected slice is sorted by ID immediately below, erasing iteration order
	for id, s := range p.byID {
		if p.isQuarantined(id) {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// MatchCalls returns the number of view-matching (candidate lookup) calls
// since the last reset.
func (p *Pool) MatchCalls() int { return int(p.matchCalls.Load()) }

// ResetMatchCalls zeroes the view-matching call counter.
func (p *Pool) ResetMatchCalls() { p.matchCalls.Store(0) }

// Filter returns a new pool holding only the one-dimensional SITs accepted
// by keep (two-dimensional SITs are not carried over). SITs are shared, not
// copied; the new pool's match-call counter starts at zero. Experiments use
// this to derive the nested pools J₀ ⊆ J₁ ⊆ … ⊆ J₇ from one fully built
// pool.
func (p *Pool) Filter(keep func(*SIT) bool) *Pool {
	out := NewPool(p.Cat)
	for _, s := range p.SITs() {
		if keep(s) {
			out.Add(s)
		}
	}
	return out
}

// MaxJoins returns the sub-pool J_i: SITs (one- and two-dimensional) whose
// expressions have at most i predicates.
func (p *Pool) MaxJoins(i int) *Pool {
	out := p.Filter(func(s *SIT) bool { return s.ExprSize() <= i })
	for _, s := range p.SITs2D() {
		if s.ExprSize() <= i {
			out.Add2D(s)
		}
	}
	return out
}

// SITs2D returns every two-dimensional SIT in deterministic order.
func (p *Pool) SITs2D() []*SIT2D {
	out := make([]*SIT2D, 0, len(p.byID2D))
	for _, s := range p.byID2D {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Candidates implements the §3.3 candidate rule for approximating
// Sel(P|Q) where P consists of predicates over attribute attr: it returns
// the SITs H = SIT(attr|Q') such that Q' ⊆ Q (containment within the
// conditioning set, under structural predicate identity) and Q' is maximal
// (no other matching SIT's expression strictly contains it). The base
// histogram qualifies exactly when no non-empty expression matches. Each
// invocation counts as one view-matching call.
func (p *Pool) Candidates(preds []engine.Pred, attr engine.AttrID, q engine.PredSet) []*SIT {
	p.matchCalls.Add(1)
	ai := p.index().byAttr[attr]
	if ai == nil {
		return nil
	}
	matched := make([]bool, len(ai.sits))
	for k, s := range ai.sits {
		matched[k] = s.MatchesSubset(preds, q)
	}
	return ai.appendMaximal(nil, matched)
}

// appendMaximal appends to out the matched SITs that survive the §3.3
// maximality rule (no other matched SIT's expression strictly contains
// theirs), in the index's canonical ID order.
func (ai *attrIndex) appendMaximal(out []*SIT, matched []bool) []*SIT {
	for k, ok := range matched {
		if !ok {
			continue
		}
		keep := true
		for _, j := range ai.supersets[k] {
			if matched[j] {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, ai.sits[k])
		}
	}
	return out
}

// PoolSpec identifies one SIT to build: an attribute and a connected join
// expression over base tables.
type PoolSpec struct {
	Attr engine.AttrID
	Expr []engine.Pred
}

// WorkloadSpecs derives the specification of pool J_maxJoins for a workload,
// per §5 "Available SITs": every SIT(a|Q) such that Q is a connected subset
// of some workload query's join predicates with |Q| ≤ maxJoins whose tables
// include a's table, and a appears (in a filter or join) in the same query.
// maxJoins = 0 yields base histograms only. Specs are deduplicated.
func WorkloadSpecs(cat *engine.Catalog, queries []*engine.Query, maxJoins int) []PoolSpec {
	seen := make(map[string]bool)
	var specs []PoolSpec
	add := func(attr engine.AttrID, expr []engine.Pred) {
		s := NewSIT(cat, attr, expr, nil, 0)
		if id := s.ID(); !seen[id] {
			seen[id] = true
			specs = append(specs, PoolSpec{Attr: attr, Expr: expr})
		}
	}
	for _, q := range queries {
		attrs := queryAttrs(q)
		for _, a := range attrs {
			add(a, nil) // base histogram
		}
		if maxJoins == 0 {
			continue
		}
		joinIdxs := q.JoinSet()
		joinIdxs.Subsets(func(sub engine.PredSet) {
			if sub.Len() > maxJoins {
				return
			}
			if len(engine.Components(q.Cat, q.Preds, sub)) != 1 {
				return
			}
			tables := engine.PredsTables(q.Cat, q.Preds, sub)
			expr := make([]engine.Pred, 0, sub.Len())
			for _, i := range sub.Indices() {
				expr = append(expr, q.Preds[i])
			}
			for _, a := range attrs {
				if tables.Has(cat.AttrTable(a)) {
					add(a, expr)
				}
			}
		})
	}
	return specs
}

// BuildWorkloadPool materializes pool J_maxJoins for the workload using the
// builder, sharing one expression evaluation across all attributes built
// over it.
func BuildWorkloadPool(b *Builder, queries []*engine.Query, maxJoins int) *Pool {
	specs := WorkloadSpecs(b.Cat, queries, maxJoins)
	pool := NewPool(b.Cat)

	// Group specs by expression so each join result is materialized once.
	type group struct {
		expr  []engine.Pred
		attrs []engine.AttrID
	}
	groups := make(map[string]*group)
	var order []string
	for _, spec := range specs {
		key := engine.PredsKey(spec.Expr, engine.FullPredSet(len(spec.Expr)))
		g, ok := groups[key]
		if !ok {
			g = &group{expr: spec.Expr}
			groups[key] = g
			order = append(order, key)
		}
		g.attrs = append(g.attrs, spec.Attr)
	}
	for _, key := range order {
		g := groups[key]
		for _, s := range b.BuildGroup(g.expr, g.attrs) {
			pool.Add(s)
		}
	}
	return pool
}

// queryAttrs returns the distinct attributes syntactically present in the
// query's predicates, in first-appearance order.
func queryAttrs(q *engine.Query) []engine.AttrID {
	seen := make(map[engine.AttrID]bool)
	var out []engine.AttrID
	for _, p := range q.Preds {
		for _, a := range p.Attrs() {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}
