package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"condsel/internal/core"
	"condsel/internal/datagen"
	"condsel/internal/engine"
	"condsel/internal/faults"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

// The deployment under test mirrors the cmd/sitserve defaults: a 20 000-row
// snowflake, a J₂ SIT pool built from a mixed J=3..7 training workload, the
// Diff error model and a 4096-entry selectivity cache. The deployment is
// fixed; the --seed argument drives only the benchmark's traffic.
const (
	factRows      = 20000
	deploySeed    = 42
	poolQueries   = 75 // 15 per join count
	poolJoins     = 2
	cacheCapacity = 4096
	minJoins      = 3
	maxJoins      = 7
)

// deployment is one provisioned statistics service: the database and the
// SIT pool every composition is built over.
type deployment struct {
	db   *datagen.DB
	pool *sit.Pool

	generateS  float64 // datagen.Generate wall time
	poolBuildS float64 // training workload + BuildWorkloadPoolParallel wall time
}

// freshState puts the process-global program state back to what a new
// process sees, so workload order cannot change any number: the
// cross-query histogram-join cache is emptied and fault injection must be
// off. Per-composition caches are always created fresh by the workloads.
func freshState() error {
	core.ResetHistJoinCache()
	if faults.Active() != nil {
		return fmt.Errorf("fault injection is armed; the benchmark needs it off")
	}
	return nil
}

// deploy generates the database and builds the SIT pool, timing both.
func deploy() (*deployment, error) {
	d := &deployment{}
	start := nowNs()
	d.db = datagen.Generate(datagen.Config{Seed: deploySeed, FactRows: factRows})
	d.generateS = secondsSince(start)

	start = nowNs()
	training, err := mixedQueries(d.db, deploySeed, poolQueries)
	if err != nil {
		return nil, fmt.Errorf("training workload: %w", err)
	}
	d.pool = sit.BuildWorkloadPoolParallel(d.db.Cat, training, poolJoins, runtime.GOMAXPROCS(0), nil)
	d.poolBuildS = secondsSince(start)
	return d, nil
}

// mixedQueries draws n non-empty queries cycling through J=3..7 joins, one
// generator per join count, so every join count is equally represented
// whatever n is.
func mixedQueries(db *datagen.DB, seed int64, n int) ([]*engine.Query, error) {
	gens := make([]*workload.Generator, 0, maxJoins-minJoins+1)
	for j := minJoins; j <= maxJoins; j++ {
		gens = append(gens, workload.NewGenerator(db, workload.Config{
			Seed: seed*1000 + int64(j), Joins: j, Filters: 3, NumQueries: n,
		}))
	}
	out := make([]*engine.Query, 0, n)
	for i := 0; i < n; i++ {
		q, err := gens[i%len(gens)].Query()
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// Traffic sizes. The cold base set and the hot set are part of the fixed
// deployment fixture, so estimate quality is measured on the same queries
// for every seed; the seed decides the order queries arrive in, the
// constants of the cold stream's variants, the hot set's popularity, the
// arrival schedule and the writers' targets. The coldBase queries carry
// exact truth and a reference answer; the cold stream continues past them
// with constant-shifted variants, so every query it hands out is new. The
// hot set's answers fit the cache.
const (
	coldBase     = 1000 // shapes: cold's p99 over their medians has 10 beyond it
	coldBaseSeed = deploySeed + 2
	hotSetSize   = 20
	hotSetSeed   = deploySeed + 1
	zipfS        = 1.1
	arrivalCount = 1 << 16
	writerSlots  = 1024 // more than any run's writes
)

// inputs is everything the benchmark feeds the program, generated from the
// seed before any timing starts.
type inputs struct {
	seed int64

	coldBase []*engine.Query // first coldBase queries of the cold stream
	coldPerm []int           // seeded order of the base set within each round
	shifts   [][]int64       // per base query, per predicate: variant step

	hot      []*engine.Query // fixed hot set
	hotTexts []string
	hotOrder []int // seeded Zipf draw over the hot set, cycled by callers

	arrivals   []float64 // unit-rate Poisson inter-arrival gaps
	staleOrder []string  // every non-base SIT once, in seeded order
	writers    []int     // seeded node per RebuildLocal, each node equally often
	jitter     []float64 // seeded offset of each write within its slot, in [0,1)
	hotNode    []int     // seeded cluster node each hot-set query is sent to, balanced
}

// makeInputs generates the seeded traffic over the deployment's database.
func makeInputs(d *deployment, seed int64, withCold bool) (*inputs, error) {
	in := &inputs{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	if withCold {
		base, err := mixedQueries(d.db, coldBaseSeed, coldBase)
		if err != nil {
			return nil, fmt.Errorf("cold queries: %w", err)
		}
		in.coldBase = base
		in.coldPerm = rng.Perm(len(base))
		in.shifts = make([][]int64, len(base))
		for i, q := range base {
			in.shifts[i] = make([]int64, len(q.Preds))
			for k, p := range q.Preds {
				if !p.IsJoin() {
					in.shifts[i][k] = 1 + rng.Int63n(97)
				}
			}
		}
	}
	hot, err := mixedQueries(d.db, hotSetSeed, hotSetSize)
	if err != nil {
		return nil, fmt.Errorf("hot set: %w", err)
	}
	in.hot = hot
	for _, q := range hot {
		in.hotTexts = append(in.hotTexts, q.String())
	}
	rank := rng.Perm(len(hot))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))
	in.hotOrder = make([]int, arrivalCount)
	for i := range in.hotOrder {
		in.hotOrder[i] = rank[zipf.Uint64()]
	}
	in.arrivals = make([]float64, arrivalCount)
	for i := range in.arrivals {
		in.arrivals[i] = rng.ExpFloat64()
	}
	ids := nonBaseSITs(d.pool)
	for _, k := range rng.Perm(len(ids)) {
		in.staleOrder = append(in.staleOrder, ids[k])
	}
	for len(in.writers) < writerSlots {
		in.writers = append(in.writers, rng.Perm(clusterNodes)...)
	}
	in.jitter = make([]float64, writerSlots)
	for i := range in.jitter {
		in.jitter[i] = rng.Float64()
	}
	for _, k := range rng.Perm(len(hot)) {
		in.hotNode = append(in.hotNode, k%clusterNodes)
	}
	return in, nil
}

// coldQuery returns the i-th query of the cold stream: round 0 is the base
// set in seeded order, every later round shifts each filter range by a
// seeded step within the attribute's domain, so constants never repeat a
// cached predicate set and each query is used once.
func (in *inputs) coldQuery(db *datagen.DB, i int) (*engine.Query, int) {
	n := len(in.coldBase)
	b := in.coldPerm[i%n]
	round := int64(i / n)
	q := in.coldBase[b]
	if round == 0 {
		return q, b
	}
	preds := append([]engine.Pred(nil), q.Preds...)
	for k, p := range preds {
		if p.IsJoin() {
			continue
		}
		dlo, dhi := attrDomain(db, p.Attr)
		width := p.Hi - p.Lo
		span := dhi - dlo - width + 1
		if span <= 1 {
			continue
		}
		off := ((p.Lo-dlo)+round*in.shifts[b][k])%span + dlo
		preds[k] = engine.Filter(p.Attr, off, off+width)
	}
	return engine.NewQuery(db.Cat, preds), -1
}

func attrDomain(db *datagen.DB, attr engine.AttrID) (lo, hi int64) {
	for _, fa := range db.FilterAttrs {
		if fa.Attr == attr {
			return fa.Lo, fa.Hi
		}
	}
	return 0, 0
}

// reference computes the answers the program is checked against, outside
// every timed region: exact cardinalities from a benchmark-owned evaluator
// (so the program's evaluator memo stays cold) and full-DP reference
// cardinalities from a single-threaded estimator with no cache.
type reference struct {
	truth []float64
	card  []float64
}

func computeReference(d *deployment, qs []*engine.Query) reference {
	ev := engine.NewEvaluator(d.db.Cat)
	est := core.NewEstimator(d.db.Cat, d.pool, core.Diff{})
	r := reference{truth: make([]float64, len(qs)), card: make([]float64, len(qs))}
	for i, q := range qs {
		r.truth[i] = ev.Count(q.Tables, q.Preds, q.All())
		r.card[i] = refCard(est, q)
	}
	return r
}

// refCard is the reference full-DP cardinality: Sel(all)·|tables^×|, the
// product the ladder and the service return.
func refCard(est *core.Estimator, q *engine.Query) float64 {
	run := est.NewRun(q)
	sel := run.GetSelectivity(q.All()).Sel
	run.Release()
	return sel * q.Cat.CrossSize(engine.PredsTables(q.Cat, q.Preds, q.All()))
}

// qError is max(est/true, true/est) with both sides floored at one row,
// so an empty estimate of a non-empty result stays finite.
func qError(est, truth float64) float64 {
	a, b := math.Max(est, 1), math.Max(truth, 1)
	if a > b {
		return a / b
	}
	return b / a
}

// validCard reports whether a cardinality is one the program may return.
func validCard(c float64) bool { return !math.IsNaN(c) && !math.IsInf(c, 0) && c >= 0 }

// nonBaseSITs lists the pool's SIT IDs built over a join expression, in ID
// order — the statistics the staleness probes and writers mark stale.
func nonBaseSITs(p *sit.Pool) []string {
	var ids []string
	for _, s := range p.SITs() {
		if !s.IsBase() {
			ids = append(ids, s.ID())
		}
	}
	sort.Strings(ids)
	return ids
}
