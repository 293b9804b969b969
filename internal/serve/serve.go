// Package serve is the estimation-as-a-service layer: an overload-safe HTTP
// front end over the robust degradation ladder where robustness is the
// architecture, not an afterthought. Three mechanisms compose:
//
//   - Admission control (Limiter): a fixed pool of concurrency slots plus a
//     bounded wait queue. Queue-wait is charged against the request's own
//     deadline, and a request that cannot afford to wait is *shed* — answered
//     immediately from a cheaper ladder tier, never rejected. Under any
//     sustained overload every request still gets a finite, provenance-
//     stamped estimate; only fidelity degrades.
//
//   - Deadline-mapped degradation: each request carries a deadline (header,
//     parameter, or the configured default) that robust.BudgetForDeadline
//     translates into a ladder entry tier and node budget. Slow requests get
//     the full DP; tight ones enter lower, so the deadline is met by
//     construction rather than by killing work at the wire.
//
//   - SLO enforcement (SLOController): a rolling-p99 controller caps the
//     tier admission may grant. When the observed tail breaches the target
//     the cap tightens one rung (with hold-down); when the tail stays calm
//     it re-opens (with hold-up hysteresis). The service converges to the
//     highest fidelity the current load can sustain.
//
// Every response carries the ladder Provenance — tier, fallback trail,
// statistics generation — so a consumer can always tell a full-fidelity
// answer from a degraded one.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/lifecycle"
	"condsel/internal/qtext"
	"condsel/internal/robust"
	"condsel/internal/sit"
)

// Estimator is the estimation backend the server fronts. robust ladders,
// lifecycle-managed epochs and test stubs all satisfy it.
type Estimator interface {
	Estimate(ctx context.Context, q *engine.Query, cfg robust.Config) (float64, robust.Provenance)
}

// EstimatorFunc adapts a function to the Estimator interface.
type EstimatorFunc func(ctx context.Context, q *engine.Query, cfg robust.Config) (float64, robust.Provenance)

func (f EstimatorFunc) Estimate(ctx context.Context, q *engine.Query, cfg robust.Config) (float64, robust.Provenance) {
	return f(ctx, q, cfg)
}

// LadderSource builds an Estimator over a core-estimator source — typically
// lifecycle.(*Manager).Estimator, so every request sees the freshest epoch
// through one atomic load. A fresh ladder per request is deliberate:
// robust.New is allocation-cheap and the per-request Config (deadline tier,
// SLO cap, shed cap) is baked into it.
func LadderSource(source func() *core.Estimator) Estimator {
	return EstimatorFunc(func(ctx context.Context, q *engine.Query, cfg robust.Config) (float64, robust.Provenance) {
		return robust.New(source(), cfg).Cardinality(ctx, q)
	})
}

// Config assembles a Server. Catalog and Estimator are required; everything
// else defaults sanely.
type Config struct {
	// Catalog resolves query text (qtext grammar) against table schemas.
	Catalog *engine.Catalog
	// Estimator answers admitted requests. Use LadderSource to front a
	// lifecycle manager.
	Estimator Estimator

	// MaxConcurrent is the admission slot count (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds the wait queue (default 4×MaxConcurrent).
	MaxQueue int
	// DefaultDeadline applies when a request names none (default 250ms).
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-supplied deadlines (default 5s).
	MaxDeadline time.Duration
	// FloorReserve is held back from the deadline before queuing so a shed
	// request still has time to answer from a cheap tier (default 2ms).
	FloorReserve time.Duration

	// SLO configures the tail-latency controller (zero value: 500ms target).
	SLO SLOConfig
	// Clock drives the SLO controller's hysteresis (default: real time).
	Clock Clock

	// DrainDeadline bounds how long Shutdown waits for in-flight requests
	// (default 10s).
	DrainDeadline time.Duration
	// RetryAfter is the Retry-After value on drain 503s (default 1s).
	RetryAfter time.Duration

	// Cache, Pool and Lifecycle are optional metrics sources for /metrics.
	Cache     *core.SelCacheStore
	Pool      func() *sit.Pool
	Lifecycle *lifecycle.Manager
	// Cluster is an optional metrics source for the distributed statistics
	// tier. The service stays decoupled from internal/cluster: a cluster
	// front end (cmd/sitnode) adapts its node's counters into this struct.
	Cluster func() ClusterCounters
}

// ClusterCounters is the /metrics slice of a cluster node's state. Field
// meanings mirror cluster.Counters; the duplicate type keeps serve free of
// a cluster dependency so single-node deployments don't link the tier.
type ClusterCounters struct {
	Nodes            int    // membership size
	PeersAdmitted    int    // peers with an admitted replica
	PeersMissing     int    // peers with no admitted replica
	PeersTripped     int    // peers whose breaker is currently open
	Epoch            uint64 // this node's rebuild epoch
	LocalGeneration  uint64 // local shard content generation
	MergedGeneration uint64 // merged pool content generation
	Replications     int64  // admitted peer frames
	ReplFailures     int64  // replicate calls that gave up
	FenceRejections  int64  // frames refused by the generation vector
	Degraded         int64  // estimates degraded by an unreachable shard
	Retries          int64  // fetch retries beyond first attempts
	BreakerTrips     int64  // cumulative breaker trips across peers
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 250 * time.Millisecond
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Second
	}
	if c.FloorReserve <= 0 {
		c.FloorReserve = 2 * time.Millisecond
	}
	if c.SLO.TargetP99 == 0 {
		c.SLO.TargetP99 = 500 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the HTTP estimation service. Create with New, run with Serve,
// stop with Shutdown (graceful: drains in-flight work first).
type Server struct {
	cfg     Config
	limiter *Limiter
	slo     *SLOController
	mux     *http.ServeMux
	http    *http.Server

	draining atomic.Bool
	inflight sync.WaitGroup
	m        metrics
}

// New validates cfg and assembles the server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, errors.New("serve: Config.Catalog is required")
	}
	if cfg.Estimator == nil {
		return nil, errors.New("serve: Config.Estimator is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		limiter: NewLimiter(cfg.MaxConcurrent, cfg.MaxQueue),
		slo:     NewSLOController(cfg.SLO, cfg.Clock),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/estimate", s.handleEstimate)
	s.mux.HandleFunc("/estimate/batch", s.handleBatch)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.http = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	return s, nil
}

// Handler exposes the mux (tests drive it through httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// DeadlineHeader names the per-request deadline override, in milliseconds.
const DeadlineHeader = "X-Condsel-Deadline-Ms"

// EstimateResult is the JSON body of /estimate responses (and each element
// of /estimate/batch responses).
type EstimateResult struct {
	Query          string  `json:"query,omitempty"`
	Cardinality    float64 `json:"cardinality"`
	Tier           string  `json:"tier"`
	FallbackReason string  `json:"fallback_reason,omitempty"`
	Generation     uint64  `json:"generation"`
	DeadlineMs     float64 `json:"deadline_ms"`
	QueueWaitMs    float64 `json:"queue_wait_ms"`
	ElapsedMs      float64 `json:"elapsed_ms"`
	Shed           bool    `json:"shed,omitempty"`
	ShedCause      string  `json:"shed_cause,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// deadlineFor extracts the request deadline: header, then query parameter,
// then the default; always clamped to (0, MaxDeadline].
func (s *Server) deadlineFor(r *http.Request) (time.Duration, error) {
	raw := r.Header.Get(DeadlineHeader)
	if raw == "" {
		raw = r.URL.Query().Get("deadline_ms")
	}
	if raw == "" {
		return s.cfg.DefaultDeadline, nil
	}
	ms, err := strconv.ParseFloat(raw, 64)
	if err != nil || ms != ms || ms <= 0 {
		return 0, fmt.Errorf("invalid deadline %q: want a positive millisecond count", raw)
	}
	d := time.Duration(ms * float64(time.Millisecond))
	if d <= 0 || d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d, nil
}

// EstimateQuery runs one admitted-or-shed estimation under the given
// deadline. Exported so benchmarks can measure the service layer in-process,
// without HTTP framing. The flow is the whole architecture in one screen:
// deadline → admission (queue-wait charged to the deadline) → deadline-mapped
// ladder config → SLO cap → estimate → observe. In process the observed
// span is the estimation alone; the HTTP handlers instead observe their
// whole span, from handler entry through the encoded response.
func (s *Server) EstimateQuery(ctx context.Context, q *engine.Query, deadline time.Duration, endpoint string) EstimateResult {
	start := time.Now()
	res, tier := s.estimate(ctx, q, deadline)
	s.observe(endpoint, tier, time.Since(start))
	return res
}

// observe feeds one answered request's latency to the SLO controller and
// the request-duration histogram.
func (s *Server) observe(endpoint string, tier robust.Tier, d time.Duration) {
	s.slo.Observe(d)
	s.m.observeRequest(endpoint, http.StatusOK, tier, d)
}

// estimate is EstimateQuery without the observation: callers observe the
// span their client waits for.
func (s *Server) estimate(ctx context.Context, q *engine.Query, deadline time.Duration) (EstimateResult, robust.Tier) {
	start := time.Now()
	ctx, cancel := context.WithDeadline(ctx, start.Add(deadline))
	defer cancel()

	maxWait := deadline - s.cfg.FloorReserve
	release, adm := s.limiter.Acquire(ctx, maxWait)
	s.m.queueWait.observe(adm.Waited)

	remaining := deadline - time.Since(start)
	var cfg robust.Config
	if adm.Admitted {
		defer release()
		cfg = robust.BudgetForDeadline(remaining)
	} else {
		// Shed: no slot, so answer from a tier cheap enough to run unslotted.
		// GVM is microseconds-cheap; the deadline mapping may push lower still.
		s.m.observeShed(adm.ShedCause)
		cfg = robust.BudgetForDeadline(remaining).Cap(robust.TierGVM, "admission-shed: "+adm.ShedCause)
	}
	cfg = cfg.Cap(s.slo.Admitted(), "slo-capped")

	card, prov := s.cfg.Estimator.Estimate(ctx, q, cfg)
	elapsed := time.Since(start)
	return EstimateResult{
		Cardinality:    card,
		Tier:           prov.Tier.String(),
		FallbackReason: prov.FallbackReason,
		Generation:     prov.Generation,
		DeadlineMs:     float64(deadline) / float64(time.Millisecond),
		QueueWaitMs:    float64(adm.Waited) / float64(time.Millisecond),
		ElapsedMs:      float64(elapsed) / float64(time.Millisecond),
		Shed:           !adm.Admitted,
		ShedCause:      adm.ShedCause,
	}, prov.Tier
}

// queryText pulls the query text from ?q= or the request body.
func queryText(r *http.Request) (string, error) {
	if q := r.URL.Query().Get("q"); q != "" {
		return q, nil
	}
	if r.Body == nil {
		return "", errors.New("missing query: pass ?q= or a request body")
	}
	b, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return "", fmt.Errorf("reading body: %w", err)
	}
	text := strings.TrimSpace(string(b))
	if text == "" {
		return "", errors.New("missing query: pass ?q= or a request body")
	}
	return text, nil
}

// enter registers a request with the drain machinery. The WaitGroup is
// incremented before the draining check so Shutdown's Wait cannot miss a
// request that raced past BeginDrain.
func (s *Server) enter(w http.ResponseWriter, r *http.Request, endpoint string) bool {
	s.inflight.Add(1)
	if s.draining.Load() {
		s.inflight.Done()
		s.m.drained.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
		s.m.observeRequest(endpoint, http.StatusServiceUnavailable, 0, 0)
		writeJSON(w, http.StatusServiceUnavailable, EstimateResult{Error: "draining"})
		return false
	}
	return true
}

// handleEstimate answers one query. Its latency is observed from handler
// entry until the response is written, so body read, parse and encode
// count against the SLO as they do for the client.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.enter(w, r, "estimate") {
		return
	}
	defer s.inflight.Done()

	deadline, err := s.deadlineFor(r)
	if err != nil {
		s.badRequest(w, "estimate", err)
		return
	}
	text, err := queryText(r)
	if err != nil {
		s.badRequest(w, "estimate", err)
		return
	}
	q, err := qtext.Parse(s.cfg.Catalog, text)
	if err != nil {
		s.badRequest(w, "estimate", err)
		return
	}
	res, tier := s.estimate(r.Context(), q, deadline)
	writeJSON(w, http.StatusOK, res)
	s.observe("estimate", tier, time.Since(start))
}

// handleBatch estimates a newline-separated batch of queries under one
// shared deadline, answering per-query results in order. A parse failure
// fails only its own line (error recorded in that element), never the batch.
// Every answered line is observed once the whole response is written, at the
// latency from handler entry: that is when its client receives it.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.enter(w, r, "batch") {
		return
	}
	defer s.inflight.Done()

	deadline, err := s.deadlineFor(r)
	if err != nil {
		s.badRequest(w, "batch", err)
		return
	}
	text, err := queryText(r)
	if err != nil {
		s.badRequest(w, "batch", err)
		return
	}
	estStart := time.Now()
	var out []EstimateResult
	var tiers []robust.Tier
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		q, err := qtext.Parse(s.cfg.Catalog, line)
		if err != nil {
			out = append(out, EstimateResult{Query: line, Error: err.Error()})
			s.m.observeRequest("batch", http.StatusBadRequest, 0, 0)
			continue
		}
		remaining := deadline - time.Since(estStart)
		if remaining < time.Millisecond {
			remaining = time.Millisecond // floor: every line still answers
		}
		res, tier := s.estimate(r.Context(), q, remaining)
		res.Query = line
		out = append(out, res)
		tiers = append(tiers, tier)
	}
	if out == nil {
		s.badRequest(w, "batch", errors.New("empty batch"))
		return
	}
	writeJSON(w, http.StatusOK, out)
	elapsed := time.Since(start)
	for _, tier := range tiers {
		s.observe("batch", tier, elapsed)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz reports 503 once draining so load balancers stop routing here
// while in-flight work completes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

func (s *Server) badRequest(w http.ResponseWriter, endpoint string, err error) {
	s.m.observeRequest(endpoint, http.StatusBadRequest, 0, 0)
	writeJSON(w, http.StatusBadRequest, EstimateResult{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// SLOStats snapshots the SLO controller (for benchmarks and operators; the
// same numbers are exported on /metrics).
func (s *Server) SLOStats() SLOStats { return s.slo.Stats() }

// Serve accepts connections on ln until Shutdown. It returns the error from
// the underlying http.Server (http.ErrServerClosed on clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	return s.http.Serve(ln)
}

// BeginDrain flips the server into draining mode: /readyz goes 503, new
// estimation requests are refused with 503 + Retry-After, in-flight requests
// keep running. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown gracefully stops the server: stop admitting, wait for in-flight
// requests up to the drain deadline (or ctx, whichever is sooner), then close
// the listener. Final-checkpoint flushing belongs to the process that owns
// the lifecycle manager (call its Stop after Shutdown returns).
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()

	drainCtx, cancel := context.WithTimeout(ctx, s.cfg.DrainDeadline)
	defer cancel()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-drainCtx.Done():
		drainErr = fmt.Errorf("serve: drain deadline elapsed with requests in flight: %w", drainCtx.Err())
	}
	if err := s.http.Shutdown(drainCtx); err != nil && drainErr == nil && !errors.Is(err, context.DeadlineExceeded) {
		drainErr = err
	}
	return drainErr
}
