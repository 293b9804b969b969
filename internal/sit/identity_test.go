package sit

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"condsel/internal/engine"
)

// The string-keyed containment tests SIT and SIT2D used before expression
// identity moved to canonical predicate values. They stay here as the
// oracle the canonical-value implementations must agree with.

func oracleKeys(expr []engine.Pred) map[string]bool {
	keys := make(map[string]bool, len(expr))
	for _, p := range expr {
		keys[p.Key()] = true
	}
	return keys
}

func oracleMatchesSubset(keys map[string]bool, preds []engine.Pred, q engine.PredSet) bool {
	if len(keys) > q.Len() {
		return false
	}
	found := 0
	for _, i := range q.Indices() {
		if keys[preds[i].Key()] {
			found++
		}
	}
	return found == len(keys)
}

func oracleMatchedSet(keys map[string]bool, preds []engine.Pred, q engine.PredSet) engine.PredSet {
	var m engine.PredSet
	for _, i := range q.Indices() {
		if keys[preds[i].Key()] {
			m = m.Add(i)
		}
	}
	return m
}

func oracleSubsetOf(a, b map[string]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func oracleExprID(keys map[string]bool) string {
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	return strings.Join(sorted, "&")
}

// randomPred draws from a small predicate universe over attrs, so slices
// repeat predicates, and returns a non-canonical but structurally equal
// variant about half the time: filters carrying stray Left/Right, joins
// carrying a stray Attr or filter bounds.
func randomPred(rng *rand.Rand, attrs []engine.AttrID) engine.Pred {
	var p engine.Pred
	if rng.Intn(2) == 0 {
		lo := int64(rng.Intn(3))
		p = engine.Filter(attrs[rng.Intn(len(attrs))], lo, lo+int64(rng.Intn(2)))
		if rng.Intn(2) == 0 {
			p.Left, p.Right = attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]
		}
		return p
	}
	l, r := attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]
	for r == l {
		r = attrs[rng.Intn(len(attrs))]
	}
	p = engine.Join(l, r)
	if rng.Intn(2) == 0 {
		p.Attr = attrs[rng.Intn(len(attrs))]
		p.Lo, p.Hi = int64(rng.Intn(5)), int64(rng.Intn(5))
	}
	return p
}

func randomPreds(rng *rand.Rand, attrs []engine.AttrID, max int) []engine.Pred {
	preds := make([]engine.Pred, rng.Intn(max+1))
	for i := range preds {
		preds[i] = randomPred(rng, attrs)
	}
	return preds
}

// TestExprSetMatchesKeyOracle: the canonical-value MatchesSubset,
// MatchedSet, ExprSubsetOf (and SIT2D's maximality subset test) agree with
// the string-keyed oracle on random predicate slices with duplicates and
// non-canonical predicates, and IDs render exactly as the oracle's sorted
// keys.
func TestExprSetMatchesKeyOracle(t *testing.T) {
	t.Parallel()
	const seed = 11
	rng := rand.New(rand.NewSource(seed))
	cat, a := shopDB(rng, 20)
	attrs := []engine.AttrID{a["o.id"], a["o.price"], a["l.oid"], a["l.qty"]}

	for trial := 0; trial < 400; trial++ {
		exprS, exprT := randomPreds(rng, attrs, 4), randomPreds(rng, attrs, 4)
		s := NewSIT(cat, a["o.price"], exprS, nil, 0)
		tt := NewSIT(cat, a["o.price"], exprT, nil, 0)
		s2 := NewSIT2D(cat, a["o.id"], a["o.price"], exprS, nil)
		t2 := NewSIT2D(cat, a["o.id"], a["o.price"], exprT, nil)
		keysS, keysT := oracleKeys(exprS), oracleKeys(exprT)

		if want := fmt.Sprintf("%d|%s", a["o.price"], oracleExprID(keysS)); s.ID() != want {
			t.Fatalf("seed %d trial %d: SIT ID %q, want %q", seed, trial, s.ID(), want)
		}
		if want := fmt.Sprintf("2d:%d,%d|%s", a["o.id"], a["o.price"], oracleExprID(keysS)); s2.ID() != want {
			t.Fatalf("seed %d trial %d: SIT2D ID %q, want %q", seed, trial, s2.ID(), want)
		}
		if got, want := s.ExprSubsetOf(tt), oracleSubsetOf(keysS, keysT); got != want {
			t.Fatalf("seed %d trial %d: ExprSubsetOf(%v, %v) = %v, want %v", seed, trial, exprS, exprT, got, want)
		}
		if got, want := s2.exprSet.subsetOf(t2.exprSet), oracleSubsetOf(keysS, keysT); got != want {
			t.Fatalf("seed %d trial %d: SIT2D subset(%v, %v) = %v, want %v", seed, trial, exprS, exprT, got, want)
		}

		preds := randomPreds(rng, attrs, 10)
		for k := 0; k < 8; k++ {
			q := engine.PredSet(rng.Uint64()) & engine.FullPredSet(len(preds))
			wantMatch := oracleMatchesSubset(keysS, preds, q)
			wantSet := oracleMatchedSet(keysS, preds, q)
			if got := s.MatchesSubset(preds, q); got != wantMatch {
				t.Fatalf("seed %d trial %d: SIT MatchesSubset(%v, %v) over %v = %v, want %v",
					seed, trial, preds, q, exprS, got, wantMatch)
			}
			if got := s2.MatchesSubset(preds, q); got != wantMatch {
				t.Fatalf("seed %d trial %d: SIT2D MatchesSubset(%v, %v) over %v = %v, want %v",
					seed, trial, preds, q, exprS, got, wantMatch)
			}
			if got := s.MatchedSet(preds, q); got != wantSet {
				t.Fatalf("seed %d trial %d: SIT MatchedSet = %v, want %v", seed, trial, got, wantSet)
			}
			if got := s2.MatchedSet(preds, q); got != wantSet {
				t.Fatalf("seed %d trial %d: SIT2D MatchedSet = %v, want %v", seed, trial, got, wantSet)
			}
		}
	}
}
