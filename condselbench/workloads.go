package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"time"

	"condsel/internal/cluster"
	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/lifecycle"
	"condsel/internal/robust"
	"condsel/internal/selcache"
	"condsel/internal/serve"
	"condsel/internal/sit"
)

// Workload tuning. The writer schedule fixes the write rate of drift and
// cluster, so estimate quality never decides it.
const (
	setupReps        = 5
	servedRate       = 1000.0                // offered rate of served's traced open loop, requests/s
	servedLimit      = 20 * time.Millisecond // p99 objective of served's traced rate search
	clusterWrites    = 50                    // RebuildLocal calls per cluster run: 100 per-peer staleness samples
	driftWrites      = 100                   // MarkStale calls per drift run
	replicatePeriod  = 2 * time.Second       // the sitnode default anti-entropy interval
	visibleTimeout   = 2 * time.Second
	variantChecks    = 200
	clusterNodes     = 3
	serveDeadline    = 250 * time.Millisecond
	serveMaxDeadline = 5 * time.Second
	serveSLO         = 500 * time.Millisecond

	// Cold's estimates are CPU-bound DP runs of milliseconds. One caller
	// leaves the host's second CPU to the garbage collector; two callers
	// made each estimate about 30% slower, from contention alone.
	coldCallers = 1
	// Served's closed loop calls the service's HTTP handler in process,
	// from one caller like cold. Over loopback connections its requests are
	// ~100 µs round trips between a client and a server goroutine whose
	// p99 followed the shared host's thread wake-ups: over ten runs of 40 s
	// with two callers on two connections it ranged 0.59-1.04 ms
	// (IQR/median 0.29), with one caller 0.44-0.59 over six runs. The
	// loopback transport is measured in the traced run (serve.http_self_us
	// and the open loop, over servedConns connections).
	servedCallers = 1
	servedConns   = 2
)

var workloadNames = []string{"cold", "served", "drift", "cluster"}

// composition is one started program composition plus the handles the
// workload drives.
type composition struct {
	d     *deployment
	cache *core.SelCacheStore
	mgr   *lifecycle.Manager

	srv     *serve.Server
	baseURL string
	client  *http.Client

	ring   *cluster.Ring
	nodes  []*cluster.Node
	caches []*core.SelCacheStore

	cancel context.CancelFunc
	wg     sync.WaitGroup
	stop   func() error
}

func (c *composition) close() error {
	var err error
	if c.stop != nil {
		err = c.stop()
	}
	c.cancel()
	c.wg.Wait()
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	return err
}

// start provisions a deployment and starts the workload's composition. Its
// wall time is what a deployment pays before the first request.
func start(ctx context.Context, name string) (*composition, error) {
	d, err := deploy()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	c := &composition{d: d, cancel: cancel}
	fail := func(err error) (*composition, error) {
		_ = c.close()
		return nil, err
	}
	if name == "cluster" {
		if err := c.startCluster(ctx); err != nil {
			return fail(err)
		}
		return c, nil
	}
	c.cache = core.NewSelCache(cacheCapacity)
	lcfg := lifecycle.Config{Cache: c.cache, Seed: deploySeed}
	if name == "drift" {
		// Feedback alone never crosses this threshold: the writer's schedule,
		// not estimate quality, fixes the rebuild rate.
		lcfg.DriftThreshold = 1e300
	}
	c.mgr = lifecycle.New(d.db.Cat, d.pool, lcfg)
	if err := c.mgr.Start(ctx); err != nil {
		return fail(fmt.Errorf("lifecycle start: %w", err))
	}
	c.stop = c.mgr.Stop
	if name == "served" {
		if err := c.startServer(); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

// startServer fronts the lifecycle manager with the sitserve HTTP service on
// a loopback listener.
func (c *composition) startServer() error {
	srv, err := serve.New(serve.Config{
		Catalog:         c.d.db.Cat,
		Estimator:       serve.LadderSource(c.mgr.Estimator),
		DefaultDeadline: serveDeadline,
		MaxDeadline:     serveMaxDeadline,
		SLO:             serve.SLOConfig{TargetP99: serveSLO},
		Cache:           c.cache,
		Pool:            func() *sit.Pool { return c.mgr.Estimator().Pool },
		Lifecycle:       c.mgr,
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	c.srv = srv
	c.baseURL = "http://" + ln.Addr().String()
	c.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: servedConns, MaxIdleConnsPerHost: servedConns, DisableCompression: true,
	}}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = srv.Serve(ln)
	}()
	mgrStop := c.stop
	c.stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if e := mgrStop(); err == nil {
			err = e
		}
		return err
	}
	return nil
}

// startCluster builds three nodes over one in-memory transport carrying real
// SITW frames, each with its own selectivity cache as separate processes
// would have, runs every node's anti-entropy loop and warms replication.
func (c *composition) startCluster(ctx context.Context) error {
	ids := cluster.HarnessIDs(clusterNodes)
	ring, err := cluster.NewRing(ids, 0)
	if err != nil {
		return err
	}
	c.ring = ring
	tr := cluster.NewMemTransport()
	for _, id := range ids {
		cache := core.NewSelCache(cacheCapacity)
		node, err := cluster.NewNode(cluster.Config{
			Self: id, Nodes: ids, Cache: cache, Seed: deploySeed,
		}, c.d.db.Cat, ring.Shard(c.d.pool, id), tr)
		if err != nil {
			return err
		}
		tr.Register(node)
		c.nodes = append(c.nodes, node)
		c.caches = append(c.caches, cache)
	}
	for _, n := range c.nodes {
		if err := n.WarmUp(ctx); err != nil {
			return fmt.Errorf("cluster warm-up: %w", err)
		}
	}
	// The nodes' anti-entropy ticks are staggered, as separately started
	// processes' would be.
	for i, n := range c.nodes {
		c.wg.Add(1)
		go func(i int, n *cluster.Node) {
			defer c.wg.Done()
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Duration(i) * replicatePeriod / clusterNodes):
			}
			n.ReplicateLoop(ctx, replicatePeriod)
		}(i, n)
	}
	return nil
}

// estimateHTTP sends one /estimate request over a loopback connection and
// decodes the answer.
func (c *composition) estimateHTTP(path string) (serve.EstimateResult, error) {
	var res serve.EstimateResult
	resp, err := c.client.Get(c.baseURL + path)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, err
	}
	if resp.StatusCode/100 != 2 {
		return res, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return res, err
	}
	return res, nil
}

// estimateInProcess serves one /estimate request through the service's
// HTTP handler in process, the way the server calls it for a request read
// from a connection, and decodes the answer.
func (c *composition) estimateInProcess(path string) (serve.EstimateResult, error) {
	var res serve.EstimateResult
	rec := httptest.NewRecorder()
	c.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code/100 != 2 {
		return res, fmt.Errorf("status %d", rec.Code)
	}
	err := json.Unmarshal(rec.Body.Bytes(), &res)
	return res, err
}

// checker validates answers as they arrive: finite non-negative
// cardinality, provenance present, and bit-identity with the reference for
// every full-DP answer to a query that has one. It keeps each distinct
// query's first q-error.
type checker struct {
	mu       sync.Mutex
	answers  int
	fullDP   int
	failures int
	mismatch int
	qerr     map[int]float64
	reasons  map[string]int
}

func newChecker() *checker {
	return &checker{qerr: map[int]float64{}, reasons: map[string]int{}}
}

// answer is one program answer to check. id indexes ref/truth (-1: none).
type answer struct {
	id     int
	card   float64
	tier   string
	gen    uint64
	fullDP bool
}

func (ck *checker) check(a answer, ref reference) bool {
	reason, mismatch := "", false
	switch {
	case !validCard(a.card):
		reason = "invalid cardinality"
	case a.tier == "" || a.gen == 0:
		reason = "missing provenance"
	case a.fullDP && a.id >= 0 && a.card != ref.card[a.id]:
		reason, mismatch = mismatchReason, true
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.answers++
	if a.fullDP {
		ck.fullDP++
	}
	if a.id >= 0 {
		if _, seen := ck.qerr[a.id]; !seen && validCard(a.card) {
			ck.qerr[a.id] = qError(a.card, ref.truth[a.id])
		}
	}
	if mismatch {
		ck.mismatch++
	}
	if reason != "" {
		ck.failures++
		ck.reasons[reason]++
		return false
	}
	return true
}

const mismatchReason = "full-dp answer differs from reference"

func (ck *checker) fail(reason string) bool {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.answers++
	ck.failures++
	ck.reasons[reason]++
	return false
}

// lateMismatch records a full-DP answer found to differ from its reference
// after the timed phase (the answer itself was counted when it arrived).
func (ck *checker) lateMismatch() {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.failures++
	ck.mismatch++
	ck.reasons[mismatchReason]++
}

func (ck *checker) qerrP90() float64 {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	vs := make([]float64, 0, len(ck.qerr))
	for _, v := range ck.qerr {
		vs = append(vs, v)
	}
	return pct(vs, 0.9)
}

// result is one workload run's measurements.
type result struct {
	name      string
	setupS    float64
	setups    []float64
	gens      []float64 // datagen.Generate per set-up
	builds    []float64 // pool build per set-up
	main      loopStats // the closed loop; its latencies are dropped once summarized
	samples   int       // latencies of the main phase
	shapes    int       // cold: query shapes the latency percentiles are taken over
	p50Ms     float64
	p90Ms     float64
	p99Ms     float64 // reported beside the metrics, see endToEnd
	estP50Ms  float64 // per-estimate percentiles, which cold reports beside its per-shape ones
	estP90Ms  float64
	estP99Ms  float64
	qps       float64
	staleness []float64 // ms
	heapMB    float64
	ck        *checker
	failed    int // failures outside the checker (writer timeouts)
	attempted int
	lagP99Ms  float64 // served's traced open loop only
	valid     bool
	// tracer is the traced run's span sink and tr the one requests record
	// into right now (nil in untraced segments).
	tracer, tr  *tracer
	overheadPct float64
	probes      []string // rate-search probe descriptions
	notes       []string
	counters    map[string]float64
	deploy      *deployment
	comp        *composition
	in          *inputs
	ref         reference
}

// runWorkload runs one workload end to end: repeated set-up (median
// reported), seeded inputs and reference answers outside timing, the timed
// phases, then the post-phase measurements and checks. With a tracer, every
// request of the timed phases is recorded as a span.
func runWorkload(ctx context.Context, name string, seed int64, dur time.Duration, tr *tracer) (*result, error) {
	if err := freshState(); err != nil {
		return nil, err
	}
	r := &result{name: name, ck: newChecker(), counters: map[string]float64{}, valid: true}
	var comp *composition
	for k := 0; k < setupReps; k++ {
		runtime.GC()
		t0 := nowNs()
		c, err := start(ctx, name)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		r.setups = append(r.setups, secondsSince(t0))
		r.gens = append(r.gens, c.d.generateS)
		r.builds = append(r.builds, c.d.poolBuildS)
		if comp != nil {
			if err := comp.close(); err != nil {
				return nil, fmt.Errorf("%s tear-down: %w", name, err)
			}
		}
		comp = c
	}
	r.setupS = median(r.setups)
	r.comp, r.deploy = comp, comp.d
	r.tracer = tr

	in, err := makeInputs(comp.d, seed, name == "cold")
	if err != nil {
		return nil, err
	}
	r.in = in
	checked := in.hot
	if name == "cold" {
		checked = in.coldBase
	}
	r.ref = computeReference(comp.d, checked)
	// The reference estimator shares the deployment pool's generation; drop
	// the histogram joins it computed so the timed phase starts cold.
	core.ResetHistJoinCache()

	switch name {
	case "cold":
		err = r.runCold(dur)
	case "served":
		err = r.runServed(dur)
	case "drift":
		err = r.runDrift(dur)
	case "cluster":
		err = r.runCluster(ctx, dur)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	if name == "cluster" {
		r.notes = append(r.notes, "the process-global histogram-join cache is shared by the in-process cluster nodes")
	}
	return r, nil
}

// heapLiveMB forces a collection and reports the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runCold: one closed-loop caller estimates fresh queries through the
// lifecycle-published core.Estimator, each query used once. The guarded
// entry point reports whether the full DP produced the answer, which is
// what full_dp_share counts.
func (r *result) runCold(dur time.Duration) error {
	c, in, db := r.comp, r.in, r.deploy.db
	var mu sync.Mutex
	var variants []variantAnswer
	fn := func(w, i int) func() bool {
		q, id := in.coldQuery(db, i)
		return func() bool {
			t0 := nowNs()
			est := c.mgr.Estimator()
			run := est.NewRun(q)
			res, reason := run.SelectivityGuarded(q.All())
			var sel float64
			if reason == "" {
				sel = res.Sel
			}
			run.Release()
			r.tr.record(int64(i), "core.estimate", "", t0, nowNs())
			if reason != "" {
				// The estimator produced no full-DP answer.
				return r.ck.fail("full dp: " + reason)
			}
			card := sel * q.Cat.CrossSize(engine.PredsTables(q.Cat, q.Preds, q.All()))
			if id < 0 {
				mu.Lock()
				if len(variants) < variantChecks {
					variants = append(variants, variantAnswer{q, card})
				}
				mu.Unlock()
			}
			return r.ck.check(answer{id: id, card: card, tier: robust.TierFullDP.String(),
				gen: est.Pool.Generation(), fullDP: true}, r.ref)
		}
	}
	s0 := c.cache.Stats()
	r.closedMain(coldCallers, coldBase, dur, fn)
	s1 := c.cache.Stats()
	cacheCounters(r.counters, s0, s1, r.samples)
	r.heapMB = heapLiveMB()
	// Fresh-constant answers get their reference after the timed phase.
	ref := core.NewEstimator(db.Cat, r.deploy.pool, core.Diff{})
	for _, v := range variants {
		if v.card != refCard(ref, v.q) {
			r.ck.lateMismatch()
		}
	}
	r.probeStaleness()
	return nil
}

type variantAnswer struct {
	q    *engine.Query
	card float64
}

// traceSegments is how many alternating untraced/traced segments the main
// phase of a traced run is cut into.
const traceSegments = 4

// closedMain runs the main phase, the closed loop with the given callers
// for dur, and returns the index of the next request. Untraced, it is one
// segment. Traced, it alternates untraced and traced segments of equal
// length, and the ratio of their mean latencies is the tracing overhead.
// The latency figures are taken at the end (see summarize) and the samples
// dropped, so they do not count in heap_live_mb.
func (r *result) closedMain(workers, shapes int, dur time.Duration, fn call) int {
	gc0 := numGC()
	next := 0
	segments := 1
	if r.tracer != nil {
		segments = traceSegments
	}
	var off, on loopStats
	for k := 0; k < segments; k++ {
		r.tr = nil
		if k%2 == 1 {
			r.tr = r.tracer
		}
		st, n := closedLoop(workers, dur/time.Duration(segments), next, fn)
		next = n
		if k%2 == 0 {
			off.merge(st)
		} else {
			on.merge(st)
		}
		r.main.merge(st)
		r.attempted += st.attempted
	}
	r.tr = r.tracer
	if r.tracer != nil {
		r.overheadPct = 100 * (meanNs(on.lat)/meanNs(off.lat) - 1)
	}
	r.counters["runtime.gc_cycles"] = float64(numGC() - gc0)
	r.summarize(shapes)
	return next
}

// summarize sets the main phase's latency figures. With shapes 0 they are
// percentiles of the per-estimate latencies. Cold passes its stream's
// shape count: request i estimates query shape i mod shapes with fresh
// constants, so each shape runs about ten times in a run, spread over the
// whole run, and the percentiles are taken over the shapes' median
// latencies, the way staleness takes each statistic's median over its
// passes. A slow spell of the shared host that covers less than half of a
// shape's runs then moves neither figure; a change to the program moves
// every run of the shapes it touches. The per-estimate percentiles are
// printed beside them.
func (r *result) summarize(shapes int) {
	lat := r.main.lat
	r.samples, r.qps = len(lat), r.main.throughput()
	r.estP50Ms, r.estP90Ms, r.estP99Ms = msQ(lat, 0.5), msQ(lat, 0.9), msQ(lat, 0.99)
	r.p50Ms, r.p90Ms, r.p99Ms = r.estP50Ms, r.estP90Ms, r.estP99Ms
	if shapes > 0 {
		per := make([][]int64, shapes)
		for k, i := range r.main.req {
			per[i%shapes] = append(per[i%shapes], lat[k])
		}
		var meds []int64
		for _, v := range per {
			if len(v) > 0 {
				meds = append(meds, pctNs(v, 0.5))
			}
		}
		r.shapes = len(meds)
		r.p50Ms, r.p90Ms, r.p99Ms = msQ(meds, 0.5), msQ(meds, 0.9), msQ(meds, 0.99)
	}
	r.main.lat, r.main.req = nil, nil
}

// lagP99Ms is the generator's lag p99, 0 when it never had to wait.
func lagP99Ms(lag []int64) float64 {
	if len(lag) == 0 {
		return 0
	}
	return msQ(lag, 0.99)
}

func meanNs(vs []int64) float64 {
	var sum float64
	for _, v := range vs {
		sum += float64(v)
	}
	return sum / float64(len(vs))
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

type selcacheStats = selcache.Stats

func cacheCounters(m map[string]float64, s0, s1 selcacheStats, queries int) {
	hits, misses := float64(s1.Hits-s0.Hits), float64(s1.Misses-s0.Misses)
	if hits+misses > 0 {
		m["core.selcache_hit_rate"] = hits / (hits + misses)
	}
	if queries > 0 {
		m["core.selcache_evictions_per_query"] = float64(s1.Evictions-s0.Evictions) / float64(queries)
	}
}

// probeStaleness marks every non-base statistic stale, stalenessPasses
// times in seeded order, on the idle composition and times each until the
// new generation is visible. A statistic's staleness sample is the median
// of its passes: the host's slow spells last about a pass, so the median
// keeps one from moving the tail.
func (r *result) probeStaleness() {
	l0 := r.comp.mgr.CountersSnapshot()
	defer func() { lifecycleCounters(r.counters, l0, r.comp.mgr.CountersSnapshot(), 0) }()
	per := make([][]float64, len(r.in.staleOrder))
	for pass := 0; pass < stalenessPasses; pass++ {
		for k, id := range r.in.staleOrder {
			ms, ok := markAndWait(r.comp.mgr, id)
			r.attempted++
			if !ok {
				r.failed++
				continue
			}
			per[k] = append(per[k], ms)
		}
	}
	for _, samples := range per {
		if len(samples) > 0 {
			r.staleness = append(r.staleness, median(samples))
		}
	}
}

// stalenessPasses is how often the idle probes rebuild every statistic.
const stalenessPasses = 7

// markAndWait marks one statistic stale and waits until the estimator
// publishes a new generation, returning the wait in milliseconds.
func markAndWait(mgr *lifecycle.Manager, id string) (float64, bool) {
	g0 := mgr.Estimator().Pool.Generation()
	t0 := nowNs()
	if !mgr.MarkStale(id, "benchmark write") {
		return 0, false
	}
	for mgr.Estimator().Pool.Generation() == g0 {
		if time.Duration(nowNs()-t0) > visibleTimeout {
			return 0, false
		}
		runtime.Gosched()
	}
	return float64(nowNs()-t0) / 1e6, true
}

// runServed: one closed-loop caller sends /estimate requests through the
// sitserve composition's HTTP handler in process, with query text drawn
// Zipf-style from the hot set and warmed over loopback before timing. A
// traced run gives the closed loop half the run and the open loop over two
// keep-alive loopback connections (openPhase) the other half.
func (r *result) runServed(dur time.Duration) error {
	c, in := r.comp, r.in
	targets := make([]string, len(in.hotTexts))
	for i, t := range in.hotTexts {
		targets[i] = "/estimate?q=" + url.QueryEscape(t)
	}
	// Warm-up: every hot-set answer enters the cache before timing.
	for i, t := range targets {
		r.attempted++
		res, err := c.estimateHTTP(t)
		if err != nil {
			r.ck.fail("transport or status: " + err.Error())
			continue
		}
		r.ck.check(answer{id: i, card: res.Cardinality, tier: res.Tier, gen: res.Generation,
			fullDP: res.Tier == robust.TierFullDP.String()}, r.ref)
	}
	var mu sync.Mutex
	var queueWait []float64
	sheds := 0
	// over sends one request and names its span: the handler in process
	// for the closed loop, a loopback connection for the open loop.
	over := func(layer string, send func(string) (serve.EstimateResult, error)) call {
		return func(w, i int) func() bool {
			id := in.hotOrder[i%len(in.hotOrder)]
			target := targets[id]
			return func() bool {
				t0 := nowNs()
				res, err := send(target)
				r.tr.record(int64(i), layer, "", t0, nowNs())
				if err != nil {
					return r.ck.fail("transport or status: " + err.Error())
				}
				mu.Lock()
				queueWait = append(queueWait, res.QueueWaitMs)
				if res.Shed {
					sheds++
				}
				mu.Unlock()
				return r.ck.check(answer{id: id, card: res.Cardinality, tier: res.Tier, gen: res.Generation,
					fullDP: res.Tier == robust.TierFullDP.String()}, r.ref)
			}
		}
	}
	slo0 := c.srv.SLOStats()
	s0 := c.cache.Stats()
	main := dur
	if r.tracer != nil {
		main = dur / 2
	}
	next := r.closedMain(servedCallers, 0, main, over("serve.handler", c.estimateInProcess))
	s1 := c.cache.Stats()
	cacheCounters(r.counters, s0, s1, r.samples)
	if r.tracer != nil {
		r.openPhase(dur-main, next, over("serve.http", c.estimateHTTP))
	}
	slo1 := c.srv.SLOStats()
	r.counters["serve.queue_wait_p99_ms"] = pct(queueWait, 0.99)
	r.counters["serve.shed_share"] = float64(sheds) / float64(len(queueWait))
	r.counters["serve.slo_transitions"] = float64(slo1.Tightenings + slo1.Reopenings - slo0.Tightenings - slo0.Reopenings)
	r.heapMB = heapLiveMB()
	r.probeStaleness()
	return nil
}

// openPhase is served's open loop over servedConns loopback connections,
// run in traced runs only: a closed-loop capacity probe for a tenth of
// dur, then 40% at servedRate on the seeded Poisson schedule, each request
// timed from when it was due, then the rate search for the highest offered
// rate whose p99 stays within servedLimit. On the shared 2-CPU host these
// figures follow the host's timer and wake-up latency more than the
// program (max rate IQR/median 0.55-0.75 over ten runs), so they are
// reported as per-layer diagnostics with no bound, next to how late the
// generator ran.
func (r *result) openPhase(dur time.Duration, first int, fn call) {
	capSt, first := closedLoop(servedConns, dur/10, first, fn)
	r.attempted += capSt.attempted
	n := int(servedRate * dur.Seconds() * 4 / 10)
	nominal := openLoop(servedConns, servedRate, n, r.in.arrivals, first, fn)
	r.attempted += nominal.attempted
	r.lagP99Ms = lagP99Ms(nominal.lag)
	r.notes = append(r.notes, fmt.Sprintf("open loop at %.0f/s: p50 %.3f ms, p99 %.3f ms over %d requests",
		servedRate, msQ(nominal.lat, 0.5), msQ(nominal.lat, 0.99), len(nominal.lat)))
	// The generator, not the server, limited the open loop when it could
	// not keep its own schedule: its lateness tail reached the objective.
	if r.lagP99Ms > float64(servedLimit)/1e6 {
		r.valid = false
		r.notes = append(r.notes, fmt.Sprintf("invalid: the generator, not the server, set the open loop's tail (lag p99 %.3f ms)", r.lagP99Ms))
	}
	rate, _, search, probes := rateSearch(servedConns, capSt.throughput(), servedLimit,
		dur/2/time.Duration(len(searchFractions)), r.in.arrivals, first+n, fn)
	r.attempted += search.attempted
	r.probes = probes
	r.counters["serve.max_rate_qps"] = rate
	r.counters["loadgen.lag_p99_ms"] = r.lagP99Ms
}

// runDrift: one closed-loop reader estimates the hot set through the robust
// ladder and feeds ObserveAt back, while a writer marks driftWrites
// statistics stale and times each until the swap is visible.
func (r *result) runDrift(dur time.Duration) error {
	c, in := r.comp, r.in
	ctx := context.Background()
	l0 := c.mgr.CountersSnapshot()
	s0 := c.cache.Stats()
	fn := func(w, i int) func() bool {
		id := i % len(in.hot)
		q := in.hot[id]
		return func() bool {
			t0 := nowNs()
			card, prov := robust.New(c.mgr.Estimator(), robust.Config{}).Cardinality(ctx, q)
			t1 := nowNs()
			c.mgr.ObserveAt(prov.Generation, q, q.All(), card, r.ref.truth[id])
			t2 := nowNs()
			r.tr.record(int64(i), "robust.ladder", "", t0, t1)
			r.tr.record(int64(i), "lifecycle.observe", "", t1, t2)
			return r.ck.check(answer{id: id, card: card, tier: prov.Tier.String(), gen: prov.Generation,
				fullDP: prov.Tier == robust.TierFullDP}, r.ref)
		}
	}
	// driftWrites statistics spread evenly over the fixed pool's ID order
	// are rebuilt, in seeded order: the same set for every seed, so the
	// staleness tail reflects the program, not which statistics the seed
	// happened to pick. (Rebuilding all of them keeps the reader busy
	// recomputing the hot set more than half the run.)
	chosen := map[string]bool{}
	ids := nonBaseSITs(c.mgr.Pool())
	for j := 0; j < driftWrites; j++ {
		chosen[ids[j*len(ids)/driftWrites]] = true
	}
	var targets []string
	for _, id := range in.staleOrder {
		if chosen[id] {
			targets = append(targets, id)
		}
	}
	stop := r.writer(dur, len(targets), func(k int) ([]float64, bool) {
		t0 := nowNs()
		ms, ok := markAndWait(c.mgr, targets[k])
		r.tracer.record(int64(-1-k), "lifecycle.mark_to_visible", "", t0, nowNs())
		if !ok {
			return nil, false
		}
		return []float64{ms}, true
	})
	r.closedMain(1, 0, dur, fn)
	stop()
	s1 := c.cache.Stats()
	l1 := c.mgr.CountersSnapshot()
	cacheCounters(r.counters, s0, s1, r.samples)
	lifecycleCounters(r.counters, l0, l1, r.main.attempted)
	r.heapMB = heapLiveMB()
	return nil
}

func lifecycleCounters(m map[string]float64, l0, l1 lifecycle.Counters, observations int) {
	m["lifecycle.rebuilds"] = float64(l1.Rebuilds - l0.Rebuilds)
	m["lifecycle.swaps"] = float64(l1.Swaps - l0.Swaps)
	m["lifecycle.failures"] = float64(l1.Failures - l0.Failures)
	if observations > 0 {
		m["lifecycle.dropped_obs_share"] = float64(l1.DroppedObs-l0.DroppedObs) / float64(observations)
	}
}

// writer runs fn on the writer schedule until the returned stop function
// is called: write k is due at (k+jitter_k)·dur/writes, the seeded jitter
// spreading writes uniformly against the program's own periodic work (the
// replication ticks). stop merges the staleness samples and write failures
// into the result once the writer has exited.
func (r *result) writer(dur time.Duration, writes int, fn func(k int) ([]float64, bool)) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var samples []float64
	n, failed := 0, 0
	period := dur / time.Duration(writes)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < writes; k++ {
			due := start.Add(time.Duration((float64(k) + r.in.jitter[k%len(r.in.jitter)]) * float64(period)))
			t := time.NewTimer(time.Until(due))
			select {
			case <-done:
				t.Stop()
				return
			case <-t.C:
			}
			ms, ok := fn(k)
			n++
			samples = append(samples, ms...)
			if !ok {
				failed++
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		r.attempted += n
		r.failed += failed
		r.staleness = append(r.staleness, samples...)
	}
}

// runCluster: one closed-loop caller sends each hot-set query to its seeded
// node while a writer calls RebuildLocal on a seeded node clusterWrites
// times and times it until each peer's merged pool carries the new stamp.
func (r *result) runCluster(ctx context.Context, dur time.Duration) error {
	c, in := r.comp, r.in
	c0 := clusterTotals(c.nodes)
	var s0 []selcacheStats
	for _, ch := range c.caches {
		s0 = append(s0, ch.Stats())
	}
	fn := func(w, i int) func() bool {
		id := i % len(in.hot)
		q := in.hot[id]
		node := c.nodes[in.hotNode[id]]
		return func() bool {
			t0 := nowNs()
			card, prov := node.Estimate(ctx, q, robust.Config{})
			r.tr.record(int64(i), "cluster.estimate", "", t0, nowNs())
			return r.ck.check(answer{id: id, card: card, tier: prov.Tier.String(), gen: prov.Generation,
				fullDP: prov.Tier == robust.TierFullDP}, r.ref)
		}
	}
	stop := r.writer(dur, clusterWrites, func(k int) ([]float64, bool) {
		x := c.nodes[in.writers[k]]
		shard := c.ring.Shard(c.d.pool, x.ID())
		gens := make([]uint64, len(c.nodes))
		for j, n := range c.nodes {
			gens[j] = n.MergedGeneration()
		}
		t0 := nowNs()
		x.RebuildLocal(shard)
		r.tracer.record(int64(-1-k), "cluster.rebuild_local", "", t0, nowNs())
		// The rebuild is pushed: every peer replicates it at once, so the
		// staleness is the replication path (fetch, SITW encode and decode,
		// fencing, merged-pool install), not the anti-entropy timer. One
		// sample per peer: the time until its merged pool carries the stamp.
		// A concurrent anti-entropy fetch of the same frame can win the
		// fence and fail this call; the peer then carries the stamp all the
		// same, so success is judged by its merged generation moving.
		samples := make([]float64, len(c.nodes))
		moved := make([]bool, len(c.nodes))
		var wg sync.WaitGroup
		for j, p := range c.nodes {
			if p == x {
				continue
			}
			wg.Add(1)
			go func(j int, p *cluster.Node) {
				defer wg.Done()
				_ = p.Replicate(ctx, x.ID()) // judged by the generation below
				samples[j] = float64(nowNs()-t0) / 1e6
				moved[j] = p.MergedGeneration() != gens[j]
			}(j, p)
		}
		wg.Wait()
		var out []float64
		for j, p := range c.nodes {
			if p == x {
				continue
			}
			if !moved[j] {
				return out, false
			}
			out = append(out, samples[j])
		}
		return out, true
	})
	r.closedMain(1, 0, dur, fn)
	stop()
	var hits, misses, evictions int64
	for j, ch := range c.caches {
		s1 := ch.Stats()
		hits += s1.Hits - s0[j].Hits
		misses += s1.Misses - s0[j].Misses
		evictions += s1.Evictions - s0[j].Evictions
	}
	cacheCounters(r.counters, selcacheStats{}, selcacheStats{Hits: hits, Misses: misses, Evictions: evictions}, r.samples)
	clusterCounters(r.counters, c0, clusterTotals(c.nodes))
	r.heapMB = heapLiveMB()
	return nil
}

func clusterTotals(nodes []*cluster.Node) cluster.Counters {
	var t cluster.Counters
	for _, n := range nodes {
		c := n.Counters()
		t.Replications += c.Replications
		t.ReplFailures += c.ReplFailures
		t.FenceRejections += c.FenceRejections
		t.Retries += c.Retries
	}
	return t
}

func clusterCounters(m map[string]float64, c0, c1 cluster.Counters) {
	repl := float64(c1.Replications - c0.Replications)
	fails := float64(c1.ReplFailures - c0.ReplFailures)
	fence := float64(c1.FenceRejections - c0.FenceRejections)
	m["cluster.replications"] = repl
	m["cluster.repl_failures"] = fails
	m["cluster.fence_rejections"] = fence
	m["cluster.retries"] = float64(c1.Retries - c0.Retries)
	if attempts := repl + fails + fence; attempts > 0 {
		m["cluster.repl_useful_ratio"] = repl / attempts
	}
}
