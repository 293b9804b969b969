// Command condselbench is the repository's benchmark: four seeded workloads
// (cold, served, drift, cluster) run against the program's public entry
// points, every answer is checked, and the end-to-end metrics are printed
// by name with their units. With --trace 1 the same workload runs with
// spans recorded around every call into a program layer, followed by a
// layer pass that drives the workload's inputs through each layer's entry
// point in turn; the per-layer metrics are printed instead.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --workload all runs the four workloads one after another, each in a
// process of its own, and prints one such line per workload.
//
// Usage (from the repository root, see run.sh):
//
//	condselbench --workload cold|served|drift|cluster|all --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the service sees; every workload
// reports all of them. The error rate is the output's failed/attempted.
// The latency tail is bounded at p90: served's ~60 µs requests have a p99
// set by the shared host's interruptions (0.115-0.197 ms over five runs of
// one build, IQR/median 0.31, while p90 held within ±6%), so p99 is printed
// in the report only.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"full_dp_share", "ratio"},
	{"q_error_p90", "ratio"},
	{"staleness_p50_ms", "ms"},
	{"staleness_p90_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's metrics. Timings come from the layer pass
// over the workload's inputs; counters (selcache, serve, lifecycle,
// runtime) count the workload's own work and read 0 where the workload's
// composition does not include that layer; the cluster counters count the
// layer pass's replication rounds unless the workload runs a cluster.
var perLayer = []metricDef{
	{"datagen.generate_s", "s"},
	{"sit.pool_build_s", "s"},
	{"sit.pool_sits", "count"},
	{"core.dp_cold_ms", "ms"},
	{"core.factor_us", "us"},
	{"sit.candidates_us", "us"},
	{"sit.match_calls_per_query", "count"},
	{"histogram.join_us", "us"},
	{"histogram.joins_per_query", "count"},
	{"core.hist_share", "ratio"},
	{"core.histjoin_hit_rate", "ratio"},
	{"core.allocs_per_query_cold", "count"},
	{"core.bytes_per_query_cold", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"core.dp_cached_us", "us"},
	{"core.allocs_per_query_cached", "count"},
	{"core.selcache_hit_rate", "ratio"},
	{"core.selcache_evictions_per_query", "count"},
	{"qtext.parse_us", "us"},
	{"robust.ladder_self_us", "us"},
	{"serve.estimate_self_us", "us"},
	{"serve.http_self_us", "us"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.shed_share", "ratio"},
	{"serve.slo_transitions", "count"},
	{"serve.max_rate_qps", "1/s"},
	{"loadgen.lag_p99_ms", "ms"},
	{"engine.materialize_ms", "ms"},
	{"histogram.build_us", "us"},
	{"sit.build_ms", "ms"},
	{"lifecycle.rebuilds", "count"},
	{"lifecycle.swaps", "count"},
	{"lifecycle.failures", "count"},
	{"lifecycle.observe_us", "us"},
	{"lifecycle.dropped_obs_share", "ratio"},
	{"cluster.encode_us", "us"},
	{"cluster.frame_bytes", "bytes"},
	{"cluster.decode_us", "us"},
	{"cluster.replicate_ms", "ms"},
	{"cluster.rebuild_local_ms", "ms"},
	{"cluster.estimate_self_us", "us"},
	{"cluster.replications", "count"},
	{"cluster.repl_failures", "count"},
	{"cluster.fence_rejections", "count"},
	{"cluster.retries", "count"},
	{"cluster.repl_useful_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.reconcile_failures", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: cold, served, drift, cluster or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || !(slices.Contains(workloadNames, *workload) || *workload == "all") {
		fmt.Fprintln(os.Stderr, "condselbench: need --workload cold|served|drift|cluster|all, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if *workload == "all" {
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "condselbench:", err)
			os.Exit(1)
		}
		os.Exit(runAll(self, os.Stdout, *seed, *seconds, *trace))
	}
	out, err := runOne(context.Background(), *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "condselbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "condselbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload, each in a process of its own started from
// the binary self, and copies their output to out: the pool generation
// counter is process-wide and decides where cache entries are sharded, so
// only a fresh process makes a workload's numbers independent of what ran
// before it. It returns the exit code.
func runAll(self string, out io.Writer, seed int64, seconds, trace int) int {
	code := 0
	for _, name := range workloadNames {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = out, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "condselbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// runOne runs one workload and assembles its output, printing a readable
// report (every metric with its unit, sample counts, checks) first.
func runOne(ctx context.Context, name string, seed int64, dur time.Duration, traced bool) (output, error) {
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	r, err := runWorkload(ctx, name, seed, dur, tr)
	if err != nil {
		return output{}, err
	}
	if err := r.comp.close(); err != nil {
		return output{}, fmt.Errorf("composition shutdown: %w", err)
	}
	out := output{
		Attempted: r.attempted,
		Failed:    r.ck.failures + r.failed,
		Metrics:   map[string]metricValue{},
	}
	values := endToEndValues(r)
	defs := endToEnd
	if traced {
		if values, err = perLayerValues(ctx, r); err != nil {
			return output{}, err
		}
		defs = perLayer
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return output{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans: %d written to %s\n", len(tr.spans), path)
	}
	out.Correct = out.Failed == 0
	fmt.Printf("# workload %s seed %d: %d samples in the main phase, %d attempted, %d failed (error_rate %.6f)\n",
		name, seed, r.samples, out.Attempted, out.Failed, float64(out.Failed)/float64(out.Attempted))
	fmt.Printf("# latency p99 %.4f ms (not bounded)\n", r.p99Ms)
	if r.shapes > 0 {
		fmt.Printf("# latency over %d query shapes, each the median of its estimates; per estimate: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n",
			r.shapes, r.estP50Ms, r.estP90Ms, r.estP99Ms)
	}
	fmt.Printf("# set-ups (s): %v; staleness samples %d; answers %d, full-dp %d, full-dp mismatches %d\n",
		r.setups, len(r.staleness), r.ck.answers, r.ck.fullDP, r.ck.mismatch)
	if name == "served" && traced {
		fmt.Printf("# open-loop generator lag p99 %.3f ms; open loop valid: %v\n", r.lagP99Ms, r.valid)
	}
	for _, p := range r.probes {
		fmt.Println("# rate probe:", p)
	}
	for _, n := range append(r.notes, r.sampleNotes()...) {
		fmt.Println("# note:", n)
	}
	reasons := make([]string, 0, len(r.ck.reasons))
	for reason, n := range r.ck.reasons {
		reasons = append(reasons, fmt.Sprintf("%s x%d", reason, n))
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Println("# failure:", reason)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return output{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("# %-36s %14.6g %s\n", d.name, v, d.unit)
	}
	return out, nil
}

// sampleNotes flags percentiles reported with fewer than ten samples
// beyond them.
func (r *result) sampleNotes() []string {
	var ns []string
	if n := r.samples; n < 1000 {
		ns = append(ns, fmt.Sprintf("latency p99 rests on %d samples, fewer than 1000", n))
	}
	if n := len(r.staleness); n < 100 {
		ns = append(ns, fmt.Sprintf("staleness p90 rests on %d samples, fewer than 100", n))
	}
	return ns
}

func endToEndValues(r *result) map[string]float64 {
	return map[string]float64{
		"setup_s":          r.setupS,
		"latency_p50_ms":   r.p50Ms,
		"latency_p90_ms":   r.p90Ms,
		"throughput_qps":   r.qps,
		"full_dp_share":    float64(r.ck.fullDP) / float64(r.ck.answers),
		"q_error_p90":      r.ck.qerrP90(),
		"staleness_p50_ms": pct(r.staleness, 0.5),
		"staleness_p90_ms": pct(r.staleness, 0.9),
		"heap_live_mb":     r.heapMB,
	}
}
