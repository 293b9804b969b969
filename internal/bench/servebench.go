package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/robust"
	"condsel/internal/serve"
)

// ServeBenchConfig configures the service-layer load benchmark: a real
// sitserve-shaped server (admission control, deadline mapping, SLO
// controller) is driven over HTTP through three phases — open traffic under
// capacity, sustained overload at OverloadFactor× the slot count, and a
// graceful drain with clients still firing.
type ServeBenchConfig struct {
	Slots          int           // admission slots (default 4)
	Queue          int           // wait-queue bound (default Slots)
	OverloadFactor int           // overload clients per slot (default 4)
	Phase          time.Duration // per-phase wall clock (default 3s)
	OpenDeadline   time.Duration // per-request deadline in the open phase (default 250ms)
	TightDeadline  time.Duration // per-request deadline under overload (default 10ms)
	SLOTarget      time.Duration // p99 target for the controller (default 50ms)
	PoolJoins      int           // SIT pool J_i (default 2)
	OverheadIters  int           // alternating-order rounds for the overhead figure (default 31)
}

func (c ServeBenchConfig) withDefaults() ServeBenchConfig {
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.Queue <= 0 {
		c.Queue = c.Slots
	}
	if c.OverloadFactor <= 0 {
		c.OverloadFactor = 4
	}
	if c.Phase <= 0 {
		c.Phase = 3 * time.Second
	}
	if c.OpenDeadline <= 0 {
		c.OpenDeadline = 250 * time.Millisecond
	}
	if c.TightDeadline <= 0 {
		c.TightDeadline = 10 * time.Millisecond
	}
	if c.SLOTarget == 0 {
		c.SLOTarget = 50 * time.Millisecond
	}
	if c.PoolJoins == 0 {
		c.PoolJoins = 2
	}
	if c.OverheadIters <= 0 {
		c.OverheadIters = 31
	}
	return c
}

// ServePhaseStats is one load phase's outcome, JSON-tagged for
// BENCH_serve.json. The robustness contract shows up as numbers: Errors5xx
// must stay 0 in every phase, Refused503 is non-zero only while draining,
// and under overload the tier distribution moves off full-dp while every
// response still carries provenance.
type ServePhaseStats struct {
	Phase       string         `json:"phase"`
	Clients     int            `json:"clients"`
	DeadlineMs  float64        `json:"deadline_ms"`
	Requests    int            `json:"requests"`
	OK          int            `json:"ok"`
	BadRequest  int            `json:"bad_request"`
	Refused503  int            `json:"refused_503"`
	Errors5xx   int            `json:"errors_5xx"`
	Transport   int            `json:"transport_errors"`
	Sheds       int            `json:"sheds"`
	MissingProv int            `json:"missing_provenance"`
	Tiers       map[string]int `json:"tiers"`
	P50Ms       float64        `json:"p50_latency_ms"`
	P99Ms       float64        `json:"p99_latency_ms"`
	// ServerP99Ms is the p99 of the server-side elapsed time each response
	// reports (admission + estimation, no HTTP framing). The SLO controller
	// governs the longer handler span, which adds body read, parse and
	// encode.
	ServerP99Ms    float64 `json:"server_p99_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
}

// ServeBenchReport is the BENCH_serve.json payload.
type ServeBenchReport struct {
	Seed           int64             `json:"seed"`
	FactRows       int               `json:"fact_rows"`
	Slots          int               `json:"slots"`
	Queue          int               `json:"queue"`
	PoolJoins      int               `json:"pool_joins"`
	SLOTargetMs    float64           `json:"slo_target_ms"`
	Phases         []ServePhaseStats `json:"phases"`
	SLOTightenings int64             `json:"slo_tightenings"`
	SLOReopenings  int64             `json:"slo_reopenings"`
	DrainCompleted bool              `json:"drain_completed"`
	// Un-armed service-layer overhead on the in-process path: EstimateQuery
	// with free slots and a generous deadline versus the bare robust ladder,
	// per-query minimum over alternating-order rounds.
	BareNsPerOp    float64 `json:"bare_ns_per_op"`
	ServiceNsPerOp float64 `json:"service_ns_per_op"`
	OverheadPct    float64 `json:"overhead_pct"`
}

// ServeBench provisions the environment's estimator behind a real serve
// stack on a loopback listener and drives the three-phase load arc.
func (e *Env) ServeBench(cfg ServeBenchConfig) ServeBenchReport {
	cfg = cfg.withDefaults()
	queries := e.mixedWorkload()
	pool := e.Pool(e.Opts.Joins[len(e.Opts.Joins)-1], cfg.PoolJoins)
	est := core.NewEstimator(e.DB.Cat, pool, core.Diff{})

	report := ServeBenchReport{
		Seed:        e.Opts.Seed,
		FactRows:    e.Opts.FactRows,
		Slots:       cfg.Slots,
		Queue:       cfg.Queue,
		PoolJoins:   cfg.PoolJoins,
		SLOTargetMs: float64(cfg.SLOTarget) / float64(time.Millisecond),
	}

	srv, err := serve.New(serve.Config{
		Catalog:       e.DB.Cat,
		Estimator:     serve.LadderSource(func() *core.Estimator { return est }),
		MaxConcurrent: cfg.Slots,
		MaxQueue:      cfg.Queue,
		MaxDeadline:   10 * time.Second,
		SLO:           serve.SLOConfig{TargetP99: cfg.SLOTarget},
		DrainDeadline: 30 * time.Second,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: serve.New: %v", err))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("bench: listen: %v", err))
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()

	// Pre-encode the query URLs once; the load loop only does HTTP.
	targets := make([]string, len(queries))
	for i, q := range queries {
		targets[i] = base + "/estimate?q=" + url.QueryEscape(q.String())
	}

	// Phase 1 — open: half the slot count, generous deadlines. Warm state,
	// no contention: the expected picture is all-200, all full-dp, no sheds.
	open := runServePhase("open", targets, maxInt(1, cfg.Slots/2), cfg.Phase, cfg.OpenDeadline)
	report.Phases = append(report.Phases, open)

	// Phase 2 — overload: OverloadFactor× the slot count with tight
	// deadlines. Admission sheds and deadline-mapped entry push traffic down
	// the ladder; the SLO controller may cap further. Still zero 5xx.
	overload := runServePhase("overload", targets, cfg.OverloadFactor*cfg.Slots, cfg.Phase, cfg.TightDeadline)
	report.Phases = append(report.Phases, overload)

	// Phase 3 — drain: open-phase traffic, with BeginDrain fired a third of
	// the way in. In-flight requests complete (200), later arrivals are
	// refused 503 + Retry-After; no request is dropped on the floor.
	drainAt := time.AfterFunc(cfg.Phase/3, srv.BeginDrain)
	drain := runServePhase("drain", targets, maxInt(1, cfg.Slots/2), cfg.Phase, cfg.OpenDeadline)
	drainAt.Stop()
	report.Phases = append(report.Phases, drain)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err == nil {
		report.DrainCompleted = true
	}
	<-serveDone
	st := srv.SLOStats()
	report.SLOTightenings = st.Tightenings
	report.SLOReopenings = st.Reopenings

	// --- Un-armed service-layer overhead --------------------------------
	// A second, idle server measures what the front end costs when nothing
	// degrades: free slots, 10s deadline, SLO disabled. Compared against the
	// bare ladder by per-query minimum over alternating-order rounds (the
	// RobustBench idiom: minima cancel scheduler noise, the order flip
	// cancels cache warming bias).
	idle, err := serve.New(serve.Config{
		Catalog:         e.DB.Cat,
		Estimator:       serve.LadderSource(func() *core.Estimator { return est }),
		MaxConcurrent:   cfg.Slots,
		DefaultDeadline: 10 * time.Second,
		SLO:             serve.SLOConfig{TargetP99: -1},
	})
	if err != nil {
		panic(fmt.Sprintf("bench: serve.New (idle): %v", err))
	}
	ladder := robust.New(est, robust.Config{})
	const overheadDeadline = 10 * time.Second
	bare := func(q *engine.Query) (float64, robust.Provenance) {
		// The same deadline context EstimateQuery installs, so the timed
		// delta is the service layer alone (admission, mapping, SLO,
		// metrics), not deadline enforcement — that cost exists in both.
		ctx, cancel := context.WithTimeout(context.Background(), overheadDeadline)
		defer cancel()
		return ladder.Cardinality(ctx, q)
	}
	for _, q := range queries {
		want, _ := bare(q)
		got := idle.EstimateQuery(context.Background(), q, overheadDeadline, "estimate")
		if got.Cardinality != want {
			panic(fmt.Sprintf("bench: service-fronted estimate diverged: %v vs %v", got.Cardinality, want))
		}
	}
	bmin := make([]float64, len(queries))
	smin := make([]float64, len(queries))
	for i := range bmin {
		bmin[i], smin[i] = math.Inf(1), math.Inf(1)
	}
	timeBare := func(i int, q *engine.Query) {
		start := time.Now()
		bare(q)
		bmin[i] = math.Min(bmin[i], float64(time.Since(start).Nanoseconds()))
	}
	timeService := func(i int, q *engine.Query) {
		start := time.Now()
		idle.EstimateQuery(context.Background(), q, overheadDeadline, "estimate")
		smin[i] = math.Min(smin[i], float64(time.Since(start).Nanoseconds()))
	}
	for it := 0; it < cfg.OverheadIters; it++ {
		core.ResetHistJoinCache()
		for i, q := range queries {
			if it%2 == 0 {
				timeBare(i, q)
				timeService(i, q)
			} else {
				timeService(i, q)
				timeBare(i, q)
			}
		}
	}
	for i := range bmin {
		report.BareNsPerOp += bmin[i] / float64(len(queries))
		report.ServiceNsPerOp += smin[i] / float64(len(queries))
	}
	report.OverheadPct = 100 * (report.ServiceNsPerOp - report.BareNsPerOp) / report.BareNsPerOp
	return report
}

// serveWireResult is the subset of the serve JSON body the bench needs.
type serveWireResult struct {
	Tier        string  `json:"tier"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	Shed        bool    `json:"shed"`
	Error       string  `json:"error"`
}

// runServePhase fires clients at the target list for the phase duration and
// aggregates outcomes.
func runServePhase(name string, targets []string, clients int, duration, deadline time.Duration) ServePhaseStats {
	stats := ServePhaseStats{
		Phase:      name,
		Clients:    clients,
		DeadlineMs: float64(deadline) / float64(time.Millisecond),
		Tiers:      map[string]int{},
	}
	deadlineHeader := fmt.Sprintf("%.0f", stats.DeadlineMs)

	type sample struct {
		status      int
		transport   bool
		latencyMs   float64
		serverMs    float64
		queueWaitMs float64
		tier        string
		shed        bool
	}
	var mu sync.Mutex
	var samples []sample

	client := &http.Client{Timeout: deadline + 5*time.Second}
	end := time.Now().Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(end); i += clients {
				req, err := http.NewRequest("GET", targets[i%len(targets)], nil)
				if err != nil {
					panic(fmt.Sprintf("bench: building request: %v", err))
				}
				req.Header.Set(serve.DeadlineHeader, deadlineHeader)
				t0 := time.Now()
				resp, err := client.Do(req)
				lat := float64(time.Since(t0)) / float64(time.Millisecond)
				s := sample{latencyMs: lat}
				if err != nil {
					s.transport = true
				} else {
					s.status = resp.StatusCode
					var wire serveWireResult
					_ = json.NewDecoder(resp.Body).Decode(&wire)
					resp.Body.Close()
					s.tier = wire.Tier
					s.shed = wire.Shed
					s.serverMs = wire.ElapsedMs
					s.queueWaitMs = wire.QueueWaitMs
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
				if s.status == http.StatusServiceUnavailable {
					// A well-behaved client honors the drain's Retry-After
					// instead of hammering the refused endpoint.
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()

	var lats, serverLats, waits []float64
	for _, s := range samples {
		stats.Requests++
		switch {
		case s.transport:
			stats.Transport++
		case s.status == http.StatusOK:
			stats.OK++
			if s.tier == "" {
				stats.MissingProv++
			} else {
				stats.Tiers[s.tier]++
			}
			if s.shed {
				stats.Sheds++
			}
			lats = append(lats, s.latencyMs)
			serverLats = append(serverLats, s.serverMs)
			waits = append(waits, s.queueWaitMs)
		case s.status == http.StatusBadRequest:
			stats.BadRequest++
		case s.status == http.StatusServiceUnavailable:
			stats.Refused503++
		case s.status >= 500:
			stats.Errors5xx++
		}
	}
	stats.P50Ms = percentile(lats, 0.50)
	stats.P99Ms = percentile(lats, 0.99)
	stats.ServerP99Ms = percentile(serverLats, 0.99)
	stats.QueueWaitP99Ms = percentile(waits, 0.99)
	return stats
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// WriteServeJSON writes the report inside the shared bench envelope.
func WriteServeJSON(w io.Writer, r ServeBenchReport) error {
	return WriteReport(w, "serve", r.Seed, r)
}

// RenderServe prints the phase table and the overhead line.
func RenderServe(w io.Writer, r ServeBenchReport) {
	fmt.Fprintf(w, "Service-layer load arc — %d slots, queue %d, SLO p99 %.0fms (seed %d)\n\n",
		r.Slots, r.Queue, r.SLOTargetMs, r.Seed)
	fmt.Fprintf(w, "%-10s %8s %8s %6s %6s %6s %6s %10s %10s %10s  %s\n",
		"phase", "clients", "reqs", "ok", "503", "5xx", "sheds", "p50 ms", "p99 ms", "srv p99", "tiers")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-10s %8d %8d %6d %6d %6d %6d %10.3f %10.3f %10.3f  %v\n",
			p.Phase, p.Clients, p.Requests, p.OK, p.Refused503, p.Errors5xx, p.Sheds,
			p.P50Ms, p.P99Ms, p.ServerP99Ms, p.Tiers)
	}
	fmt.Fprintf(w, "\nSLO controller: %d tightenings, %d reopenings; drain completed: %v\n",
		r.SLOTightenings, r.SLOReopenings, r.DrainCompleted)
	fmt.Fprintf(w, "un-armed service overhead: bare %.0f ns/op vs service %.0f ns/op (%.2f%%)\n",
		r.BareNsPerOp, r.ServiceNsPerOp, r.OverheadPct)
}
