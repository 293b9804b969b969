// Package sit implements statistics on query expressions (SITs): histograms
// built over the result of executing a join expression, as introduced in
// Bruno & Chaudhuri (SIGMOD'02) and exploited by the conditional-selectivity
// framework of the reproduced paper. It provides the SIT type, a builder
// that executes expressions and derives the per-SIT diff value (§3.5), and
// pools with the candidate-matching rules of §3.3 (attribute coverage,
// expression containment, maximality).
package sit

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"condsel/internal/engine"
	"condsel/internal/histogram"
)

// SIT is a statistic on a query expression: a histogram over attribute Attr
// built on the result of σ_Expr(tables(Expr)^×). An empty Expr denotes an
// ordinary base-table histogram. Diff is the variation distance between the
// SIT's distribution and the base distribution of Attr, computed once at
// build time (§3.5); base histograms have Diff 0 by definition.
type SIT struct {
	Attr   engine.AttrID
	Expr   []engine.Pred // join predicates of the generating expression
	Tables engine.TableSet
	Hist   *histogram.Histogram
	Diff   float64

	exprSet exprSet // canonical predicate values of Expr
	id      string  // canonical identity, precomputed (ID is hot)
}

// exprSet is an expression's predicate identity: the set of its members'
// canonical values (Pred.Canon). Two predicates are structurally identical
// exactly when their canonical forms are equal, so membership needs no
// formatted key.
type exprSet map[engine.Pred]bool

func newExprSet(expr []engine.Pred) exprSet {
	set := make(exprSet, len(expr))
	for _, p := range expr {
		set[p.Canon()] = true
	}
	return set
}

// matched returns the positions within q whose predicates belong to the set.
func (set exprSet) matched(preds []engine.Pred, q engine.PredSet) engine.PredSet {
	var m engine.PredSet
	for rest := uint64(q); rest != 0; rest &= rest - 1 {
		if i := bits.TrailingZeros64(rest); set[preds[i].Canon()] {
			m = m.Add(i)
		}
	}
	return m
}

// containedIn reports whether every member of the set appears within the
// predicate subset q of preds.
func (set exprSet) containedIn(preds []engine.Pred, q engine.PredSet) bool {
	return len(set) <= q.Len() && set.matched(preds, q).Len() == len(set)
}

// subsetOf reports whether set ⊆ t.
func (set exprSet) subsetOf(t exprSet) bool {
	if len(set) > len(t) {
		return false
	}
	for p := range set {
		if !t[p] {
			return false
		}
	}
	return true
}

// id renders the set's members as their sorted Key() strings joined by
// "&", the expression half of SIT and SIT2D identities (snapshot IDs and
// replication frames carry these strings, so their format is fixed).
func (set exprSet) id() string {
	keys := make([]string, 0, len(set))
	for p := range set {
		keys = append(keys, p.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, "&")
}

// NewSIT assembles a SIT from its parts, deriving the table set, the
// canonical expression set the §3.3 containment tests probe, and the ID.
func NewSIT(c *engine.Catalog, attr engine.AttrID, expr []engine.Pred, h *histogram.Histogram, diff float64) *SIT {
	s := &SIT{Attr: attr, Expr: expr, Hist: h, Diff: diff, exprSet: newExprSet(expr)}
	s.Tables = engine.NewTableSet(c.AttrTable(attr))
	for _, p := range expr {
		s.Tables = s.Tables.Union(p.Tables(c))
	}
	s.id = fmt.Sprintf("%d|%s", s.Attr, s.exprSet.id())
	return s
}

// IsBase reports whether the SIT is a plain base-table histogram.
func (s *SIT) IsBase() bool { return len(s.Expr) == 0 }

// ExprSize returns the number of predicates in the generating expression.
func (s *SIT) ExprSize() int { return len(s.Expr) }

// ID returns a canonical identity string: attribute plus sorted expression
// keys. Two SITs with equal IDs are built over the same expression. The
// string is precomputed at construction — the cross-query histogram-join
// cache keys on it in the estimation hot path.
func (s *SIT) ID() string { return s.id }

// Name renders the SIT in the paper's notation, e.g.
// "SIT(orders.price | lineitem.oid = orders.id)".
func (s *SIT) Name(c *engine.Catalog) string {
	if s.IsBase() {
		return fmt.Sprintf("H(%s)", c.AttrName(s.Attr))
	}
	parts := make([]string, len(s.Expr))
	for i, p := range s.Expr {
		parts[i] = p.Format(c)
	}
	return fmt.Sprintf("SIT(%s | %s)", c.AttrName(s.Attr), strings.Join(parts, " & "))
}

// MatchesSubset reports whether every predicate of the SIT's expression
// appears (structurally) within the predicate subset q of preds. This is
// the `Q' ⊆ Q` containment test of §3.3.
func (s *SIT) MatchesSubset(preds []engine.Pred, q engine.PredSet) bool {
	return s.exprSet.containedIn(preds, q)
}

// ExprSubsetOf reports whether s's expression is a (possibly equal) subset
// of t's expression.
func (s *SIT) ExprSubsetOf(t *SIT) bool { return s.exprSet.subsetOf(t.exprSet) }

// MatchedSet returns the positions within q whose predicates belong to the
// SIT's expression — the Q' actually covered by the SIT.
func (s *SIT) MatchedSet(preds []engine.Pred, q engine.PredSet) engine.PredSet {
	return s.exprSet.matched(preds, q)
}
