package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"time"

	"condsel/internal/cluster"
	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/histogram"
	"condsel/internal/lifecycle"
	"condsel/internal/qtext"
	"condsel/internal/robust"
	"condsel/internal/serve"
	"condsel/internal/sit"
)

// Layer-pass sizes: queries driven through every layer, repeats of each
// call (the minimum is kept) for the cold DP chain and for the shorter
// chains, statistics rebuilt and replication rounds made.
const (
	layerQueries  = 40
	slowRepeats   = 11
	fastRepeats   = 101
	layerRebuilds = 5
	layerWire     = 5
	// selfTolNs is the stated tolerance of the self-time reconciliation:
	// the timing noise allowed the difference of two separately timed
	// calls, so a self time may read down to -selfTolNs.
	selfTolNs = 500
	// layerReqBase keeps layer-pass request IDs apart from workload ones.
	layerReqBase = int64(1) << 40
	// layerCacheCapacity holds every cache entry of the sample, so the
	// layer pass's cached calls are all hits whatever the workload.
	layerCacheCapacity = 1 << 16
)

// dpCounters are the host-independent work counters of the DP layer over a
// fixed query sample, measured single-threaded from an empty hist-join
// cache so they repeat exactly.
type dpCounters struct {
	matchCallsPerQuery   float64
	histJoinsPerQuery    float64
	histJoinHitRate      float64
	allocsPerQueryCached float64
}

// measureDPCounters runs the sample once through a cache-less estimator and
// once more through a warmed cached one, counting matcher calls, histogram
// joins and cached-path allocations.
func measureDPCounters(d *deployment, qs []*engine.Query) dpCounters {
	core.ResetHistJoinCache()
	est := core.NewEstimator(d.db.Cat, d.pool, core.Diff{})
	mc0, hj0 := d.pool.MatchCalls(), core.HistJoinCacheStats()
	for _, q := range qs {
		run := est.NewRun(q)
		run.GetSelectivity(q.All())
		run.Release()
	}
	mc1, hj1 := d.pool.MatchCalls(), core.HistJoinCacheStats()
	n := float64(len(qs))
	c := dpCounters{
		matchCallsPerQuery: float64(mc1-mc0) / n,
		histJoinsPerQuery:  float64(hj1.Misses-hj0.Misses) / n,
	}
	if lookups := (hj1.Hits - hj0.Hits) + (hj1.Misses - hj0.Misses); lookups > 0 {
		c.histJoinHitRate = float64(hj1.Hits-hj0.Hits) / float64(lookups)
	}
	cached := core.NewEstimator(d.db.Cat, d.pool, core.Diff{})
	cached.Cache = core.NewSelCache(layerCacheCapacity)
	estimateAll := func() {
		for _, q := range qs {
			run := cached.NewRun(q)
			run.GetSelectivity(q.All())
			run.Release()
		}
	}
	estimateAll() // fill the cache and the run pool
	estimateAll()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	estimateAll()
	runtime.ReadMemStats(&m1)
	c.allocsPerQueryCached = float64(m1.Mallocs-m0.Mallocs) / n
	return c
}

// layerPass drives the workload's query sample through each layer's public
// entry point in turn, recording one span per call, and returns the
// per-layer metrics. It builds its own fixtures over the deployment so no
// background work of the workload's composition runs while it measures.
func layerPass(ctx context.Context, d *deployment, qs []*engine.Query, staleIDs []string, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	cat := d.db.Cat

	dc := measureDPCounters(d, qs)
	m["sit.match_calls_per_query"] = dc.matchCallsPerQuery
	m["histogram.joins_per_query"] = dc.histJoinsPerQuery
	m["core.histjoin_hit_rate"] = dc.histJoinHitRate
	m["core.allocs_per_query_cached"] = dc.allocsPerQueryCached

	// Cold-path allocations: a cache-less estimator over the sample.
	core.ResetHistJoinCache()
	cold := core.NewEstimator(cat, d.pool, core.Diff{})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range qs {
		run := cold.NewRun(q)
		run.GetSelectivity(q.All())
		run.Release()
	}
	runtime.ReadMemStats(&m1)
	m["core.allocs_per_query_cold"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(qs))
	m["core.bytes_per_query_cold"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(qs))

	fx, err := newLayerFixtures(ctx, d)
	if err != nil {
		return nil, err
	}
	defer fx.close()

	var histNs, dpNs int64
	for k, q := range qs {
		req := layerReqBase + int64(4*k)
		h, dp := fx.coldChain(req, q, tr)
		histNs += h
		dpNs += dp
		if err := fx.serveChain(ctx, req+1, q, tr); err != nil {
			return nil, err
		}
		fx.clusterChain(ctx, req+2, k, q, tr)
		fx.observe(req+3, q, tr)
	}
	if dpNs > 0 {
		m["core.hist_share"] = float64(histNs) / float64(dpNs)
	}
	for k, id := range staleIDs {
		fx.buildChain(layerReqBase+int64(4*len(qs)+k), d.pool.Lookup(id), tr)
	}
	c0 := clusterTotals(fx.nodes)
	frameBytes, err := fx.wire(ctx, layerReqBase+int64(4*len(qs)+layerRebuilds), tr)
	if err != nil {
		return nil, err
	}
	m["cluster.frame_bytes"] = float64(frameBytes)
	// The wire rounds' replication counters; a workload with a cluster of
	// its own reports its counters instead.
	clusterCounters(m, c0, clusterTotals(fx.nodes))
	return m, nil
}

// layerFixtures are the compositions the layer pass calls into.
type layerFixtures struct {
	d      *deployment
	plain  *core.Estimator   // no cache: the cold DP
	cached *core.Estimator   // warmed cache: the cached DP
	ladder *robust.Estimator // the ladder over cached
	srv    *serve.Server
	base   string
	client *http.Client
	mgr    *lifecycle.Manager
	truth  *engine.Evaluator
	ring   *cluster.Ring
	nodes  []*cluster.Node
	merged []*robust.Estimator // per node: a ladder over its merged pool and its cache
	wg     sync.WaitGroup
}

func newLayerFixtures(ctx context.Context, d *deployment) (*layerFixtures, error) {
	cat := d.db.Cat
	fx := &layerFixtures{d: d, truth: engine.NewEvaluator(cat)}
	fx.plain = core.NewEstimator(cat, d.pool, core.Diff{})
	fx.cached = core.NewEstimator(cat, d.pool, core.Diff{})
	fx.cached.Cache = core.NewSelCache(layerCacheCapacity)
	fx.ladder = robust.New(fx.cached, robust.Config{})
	srv, err := serve.New(serve.Config{
		Catalog:         cat,
		Estimator:       serve.LadderSource(func() *core.Estimator { return fx.cached }),
		DefaultDeadline: serveDeadline,
		MaxDeadline:     serveMaxDeadline,
		SLO:             serve.SLOConfig{TargetP99: serveSLO},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fx.srv, fx.base = srv, "http://"+ln.Addr().String()
	fx.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	fx.wg.Add(1)
	go func() {
		defer fx.wg.Done()
		_ = srv.Serve(ln)
	}()
	fx.mgr = lifecycle.New(cat, d.pool, lifecycle.Config{DriftThreshold: 1e300})

	ids := cluster.HarnessIDs(clusterNodes)
	if fx.ring, err = cluster.NewRing(ids, 0); err != nil {
		fx.close()
		return nil, err
	}
	tr := cluster.NewMemTransport()
	var caches []*core.SelCacheStore
	for _, id := range ids {
		cache := core.NewSelCache(layerCacheCapacity)
		node, err := cluster.NewNode(cluster.Config{
			Self: id, Nodes: ids, Cache: cache, Seed: deploySeed,
		}, cat, fx.ring.Shard(d.pool, id), tr)
		if err != nil {
			fx.close()
			return nil, err
		}
		tr.Register(node)
		fx.nodes = append(fx.nodes, node)
		caches = append(caches, cache)
	}
	for i, n := range fx.nodes {
		if err := n.WarmUp(ctx); err != nil {
			fx.close()
			return nil, fmt.Errorf("layer cluster warm-up: %w", err)
		}
		// Node.Estimate answers through a zero-config ladder over a Diff
		// estimator on its merged pool and its own cache. This ladder makes
		// that call on the same pool and cache: the part of Node.Estimate's
		// work below the cluster layer.
		est := core.NewEstimator(cat, n.MergedPool(), core.Diff{})
		est.Cache = caches[i]
		fx.merged = append(fx.merged, robust.New(est, robust.Config{}))
	}
	return fx, nil
}

func (fx *layerFixtures) close() {
	if fx.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = fx.srv.Shutdown(ctx)
		cancel()
	}
	fx.wg.Wait()
	if fx.client != nil {
		fx.client.CloseIdleConnections()
	}
}

// step is one layer call of a chain: the span it records and, for calls
// that must start from a given state, an untimed prep run before each call.
type step struct {
	layer, parent string
	prep, f       func()
}

// best runs the steps of one request the given number of times,
// interleaved so every layer is timed under the same conditions, and
// records each step's fastest call as its span. It returns the fastest call
// of the first step.
func best(tr *tracer, req int64, repeats int, steps ...step) int64 {
	starts := make([]int64, len(steps))
	durs := make([]int64, len(steps))
	for i := range durs {
		durs[i] = -1
	}
	for r := 0; r < repeats; r++ {
		for i, st := range steps {
			if st.prep != nil {
				st.prep()
			}
			t0 := nowNs()
			st.f()
			if d := nowNs() - t0; durs[i] < 0 || d < durs[i] {
				starts[i], durs[i] = t0, d
			}
		}
	}
	for i, st := range steps {
		tr.record(req, st.layer, st.parent, starts[i], starts[i]+durs[i])
	}
	return durs[0]
}

func timed(tr *tracer, req int64, layer, parent string, f func()) int64 {
	t0 := nowNs()
	f()
	t1 := nowNs()
	tr.record(req, layer, parent, t0, t1)
	return t1 - t0
}

// coldChain: the cold DP, then the chosen decomposition's factors, their
// candidate lookups (a run's matcher and its lookups) and their histogram
// joins, each called on its own.
// Every DP and factor call starts from an empty histogram-join cache, so a
// factor's time always includes the joins and lookups it is the parent of.
func (fx *layerFixtures) coldChain(req int64, q *engine.Query, tr *tracer) (histNs, dpNs int64) {
	type factor struct {
		p, q engine.PredSet
		sits []*sit.SIT
	}
	var chosen []factor
	var hist int64
	dpNs = best(tr, req, slowRepeats, step{"core.dp_cold", "", core.ResetHistJoinCache, func() {
		run := fx.plain.NewRun(q)
		res := run.GetSelectivity(q.All())
		if chosen == nil {
			for _, f := range res.Factors {
				chosen = append(chosen, factor{f.P, f.Q, append([]*sit.SIT(nil), f.SITs...)})
			}
		}
		hist = run.HistNanos
		run.Release()
	}})
	histNs = hist
	for _, f := range chosen {
		steps := []step{{"core.factor", "core.dp_cold", core.ResetHistJoinCache, func() {
			run := fx.plain.NewRun(q)
			run.ApproxFactor(f.p, f.q)
			run.Release()
		}}}
		// The DP's fast path looks candidates up through a sit.Matcher it
		// builds per run, not through Pool.Candidates; this is that work.
		var attrs []engine.AttrID
		for s := f.p; s != 0; s &= s - 1 {
			attrs = append(attrs, q.Preds[lowest(s)].Attrs()...)
		}
		steps = append(steps, step{"sit.candidates", "core.factor", nil, func() {
			m := sit.NewMatcher(fx.d.pool, q.Preds)
			for _, attr := range attrs {
				m.Candidates(attr, f.q)
			}
		}})
		if len(f.sits) == 2 && f.sits[0] != nil && f.sits[1] != nil {
			steps = append(steps, step{"histogram.join", "core.factor", nil, func() { histogram.Join(f.sits[0].Hist, f.sits[1].Hist) }})
		}
		best(tr, req, slowRepeats, steps...)
	}
	return histNs, dpNs
}

func lowest(s engine.PredSet) int {
	for i := 0; ; i++ {
		if s&(1<<uint(i)) != 0 {
			return i
		}
	}
}

// serveChain: one request through HTTP, and on its own each layer below it:
// query parsing, the in-process service call, the robust ladder and the
// cached DP. Every call is warmed first and the fastest of the repeats kept.
func (fx *layerFixtures) serveChain(ctx context.Context, req int64, q *engine.Query, tr *tracer) error {
	text := q.String()
	target := fx.base + "/estimate?q=" + url.QueryEscape(text)
	var err error
	get := func() {
		resp, e := fx.client.Get(target)
		if e != nil {
			err = e
			return
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("layer pass: status %d", resp.StatusCode)
		}
	}
	for i := 0; i < 3 && err == nil; i++ {
		get()
		fx.srv.EstimateQuery(ctx, q, serveDeadline, "estimate")
	}
	if err != nil {
		return err
	}
	best(tr, req, fastRepeats,
		step{"serve.http", "", nil, get},
		step{"qtext.parse", "serve.http", nil, func() { _, _ = qtext.Parse(q.Cat, text) }},
		step{"serve.estimate", "serve.http", nil, func() { fx.srv.EstimateQuery(ctx, q, serveDeadline, "estimate") }},
		step{"robust.ladder", "serve.estimate", nil, func() { fx.ladder.Cardinality(ctx, q) }},
		step{"core.dp_cached", "robust.ladder", nil, func() {
			run := fx.cached.NewRun(q)
			run.GetSelectivity(q.All())
			run.Release()
		}})
	return err
}

// clusterChain: Node.Estimate against the ladder it answers through.
func (fx *layerFixtures) clusterChain(ctx context.Context, req int64, k int, q *engine.Query, tr *tracer) {
	node, ladder := fx.nodes[k%len(fx.nodes)], fx.merged[k%len(fx.nodes)]
	for i := 0; i < 3; i++ {
		node.Estimate(ctx, q, robust.Config{})
		ladder.Cardinality(ctx, q)
	}
	best(tr, req, fastRepeats,
		step{"cluster.estimate", "", nil, func() { node.Estimate(ctx, q, robust.Config{}) }},
		step{"robust.ladder_merged", "cluster.estimate", nil, func() { ladder.Cardinality(ctx, q) }})
}

// observe feeds one feedback observation to a lifecycle manager.
func (fx *layerFixtures) observe(req int64, q *engine.Query, tr *tracer) {
	est := fx.mgr.Estimator()
	card := refCard(est, q)
	truth := fx.truth.Count(q.Tables, q.Preds, q.All())
	gen := est.Pool.Generation()
	timed(tr, req, "lifecycle.observe", "", func() { fx.mgr.ObserveAt(gen, q, q.All(), card, truth) })
}

// buildChain rebuilds one statistic: Builder.Build, and on their own the
// expression's materialization and the histogram build over its values.
func (fx *layerFixtures) buildChain(req int64, s *sit.SIT, tr *tracer) {
	if s == nil || s.IsBase() {
		return
	}
	cat := fx.d.db.Cat
	full := engine.FullPredSet(len(s.Expr))
	values := engine.NewEvaluator(cat).Materialize(s.Expr, full).AttrValues(s.Attr)
	best(tr, req, fastRepeats,
		step{"sit.build", "", nil, func() { sit.NewBuilder(cat).Build(s.Attr, s.Expr) }},
		step{"engine.materialize", "sit.build", nil, func() { engine.NewEvaluator(cat).Materialize(s.Expr, full) }},
		step{"histogram.build", "sit.build", nil, func() { histogram.Build(histogram.MaxDiff, values, sit.DefaultBuckets) }})
}

// wire measures the replication path: shard encode, frame decode, a local
// rebuild and the replication it triggers on a peer.
func (fx *layerFixtures) wire(ctx context.Context, req int64, tr *tracer) (frameBytes int, err error) {
	cat := fx.d.db.Cat
	for k := 0; k < layerWire; k++ {
		src, dst := fx.nodes[k%len(fx.nodes)], fx.nodes[(k+1)%len(fx.nodes)]
		var frame []byte
		timed(tr, req, "cluster.encode", "", func() {
			var f *cluster.Frame
			if f, err = src.ShardFrame(); err == nil {
				frame, err = cluster.EncodeFrame(f)
			}
		})
		if err != nil {
			return 0, err
		}
		frameBytes = len(frame)
		timed(tr, req, "cluster.decode", "", func() {
			var f *cluster.Frame
			if f, err = cluster.ReadFrame(bytes.NewReader(frame)); err == nil {
				_, err = f.DecodePool(cat)
			}
		})
		if err != nil {
			return 0, err
		}
		shard := fx.ring.Shard(fx.d.pool, src.ID())
		timed(tr, req, "cluster.rebuild_local", "", func() { src.RebuildLocal(shard) })
		timed(tr, req, "cluster.replicate", "", func() { err = dst.Replicate(ctx, src.ID()) })
		if err != nil {
			return 0, fmt.Errorf("layer pass replicate: %w", err)
		}
	}
	return frameBytes, nil
}

// setMedian sets metric name to the median of the nanosecond values vs
// divided by div (the unit); with no values it leaves the metric unset.
func setMedian(m map[string]float64, name string, vs []int64, div float64) {
	if len(vs) == 0 {
		return
	}
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	m[name] = float64(s[(len(s)-1)/2]) / div
}

// perLayerValues runs the layer pass over the workload's inputs and turns
// the recorded spans and counters into the per-layer metrics.
func perLayerValues(ctx context.Context, r *result) (map[string]float64, error) {
	in, d := r.in, r.deploy
	m, err := layerPass(ctx, d, in.layerQueries(), in.staleOrder[:layerRebuilds], r.tracer)
	if err != nil {
		return nil, err
	}
	for k, v := range r.counters {
		m[k] = v
	}
	m["datagen.generate_s"] = median(r.gens)
	m["sit.pool_build_s"] = median(r.builds)
	m["sit.pool_sits"] = float64(d.pool.Size())
	m["trace.overhead_pct"] = r.overheadPct

	var work, layer []span
	for _, s := range r.tracer.spans {
		if s.Req >= layerReqBase {
			layer = append(layer, s)
		} else {
			work = append(work, s)
		}
	}
	durs := func(spans []span, name string) []int64 {
		var out []int64
		for _, s := range spans {
			if s.Layer == name {
				out = append(out, s.dur())
			}
		}
		return out
	}
	// perReq sums a layer's spans within each request (a query's chosen
	// factors, for instance) before taking the median over requests.
	perReq := func(name string) []int64 {
		sums := map[int64]int64{}
		var order []int64
		for _, s := range layer {
			if s.Layer == name {
				if _, ok := sums[s.Req]; !ok {
					order = append(order, s.Req)
				}
				sums[s.Req] += s.dur()
			}
		}
		out := make([]int64, 0, len(order))
		for _, req := range order {
			out = append(out, sums[req])
		}
		return out
	}
	// preferWork takes a layer's timing from the workload's own spans when
	// the workload exercised it, else from the layer pass.
	preferWork := func(name string) []int64 {
		if vs := durs(work, name); len(vs) > 0 {
			return vs
		}
		return durs(layer, name)
	}
	setMedian(m, "core.dp_cold_ms", durs(layer, "core.dp_cold"), 1e6)
	setMedian(m, "core.factor_us", perReq("core.factor"), 1e3)
	setMedian(m, "sit.candidates_us", perReq("sit.candidates"), 1e3)
	setMedian(m, "histogram.join_us", perReq("histogram.join"), 1e3)
	setMedian(m, "core.dp_cached_us", durs(layer, "core.dp_cached"), 1e3)
	setMedian(m, "qtext.parse_us", durs(layer, "qtext.parse"), 1e3)
	setMedian(m, "engine.materialize_ms", durs(layer, "engine.materialize"), 1e6)
	setMedian(m, "histogram.build_us", durs(layer, "histogram.build"), 1e3)
	setMedian(m, "sit.build_ms", durs(layer, "sit.build"), 1e6)
	setMedian(m, "lifecycle.observe_us", preferWork("lifecycle.observe"), 1e3)
	setMedian(m, "cluster.encode_us", durs(layer, "cluster.encode"), 1e3)
	setMedian(m, "cluster.decode_us", durs(layer, "cluster.decode"), 1e3)
	setMedian(m, "cluster.replicate_ms", durs(layer, "cluster.replicate"), 1e6)
	setMedian(m, "cluster.rebuild_local_ms", preferWork("cluster.rebuild_local"), 1e6)

	selfs := map[string][]int64{}
	failures := 0
	for _, rs := range selfTimes(layer) {
		for l, v := range rs.self {
			selfs[l] = append(selfs[l], v)
		}
		if err := rs.reconcile(selfTolNs); err != nil {
			failures++
			fmt.Println("# reconcile:", err)
		}
	}
	m["trace.reconcile_failures"] = float64(failures)
	setMedian(m, "robust.ladder_self_us", selfs["robust.ladder"], 1e3)
	setMedian(m, "serve.estimate_self_us", selfs["serve.estimate"], 1e3)
	setMedian(m, "serve.http_self_us", selfs["serve.http"], 1e3)
	setMedian(m, "cluster.estimate_self_us", selfs["cluster.estimate"], 1e3)

	for _, name := range absentLayers[r.name] {
		if _, ok := m[name]; ok {
			return nil, fmt.Errorf("metric %s is listed absent for %s but was measured", name, r.name)
		}
		m[name] = 0
	}
	return m, nil
}

// absentLayers are, per workload, the per-layer metrics whose layer the
// workload's composition lacks (no HTTP service, no lifecycle manager) or
// whose base it never produces (no feedback observations); they read 0.
// Any other per-layer metric left unmeasured fails the run.
var absentLayers = map[string][]string{
	"cold":    append(openLoopLayers, "serve.queue_wait_p99_ms", "serve.shed_share", "serve.slo_transitions", "lifecycle.dropped_obs_share"),
	"served":  {"lifecycle.dropped_obs_share"},
	"drift":   append(openLoopLayers, "serve.queue_wait_p99_ms", "serve.shed_share", "serve.slo_transitions"),
	"cluster": append(openLoopLayers, "serve.queue_wait_p99_ms", "serve.shed_share", "serve.slo_transitions", "lifecycle.rebuilds", "lifecycle.swaps", "lifecycle.failures", "lifecycle.dropped_obs_share"),
}

// openLoopLayers are the metrics of served's open loop, which only served
// runs.
var openLoopLayers = []string{"serve.max_rate_qps", "loadgen.lag_p99_ms"}

// layerQueries is the query sample a workload's layer pass drives through
// the layers: the first layerQueries base queries of the cold stream for
// cold, the hot set for the others.
func (in *inputs) layerQueries() []*engine.Query {
	if len(in.coldBase) == 0 {
		return in.hot
	}
	var qs []*engine.Query
	for k := 0; k < layerQueries && k < len(in.coldPerm); k++ {
		qs = append(qs, in.coldBase[in.coldPerm[k]])
	}
	return qs
}
