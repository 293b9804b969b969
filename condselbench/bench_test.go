package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"condsel/internal/engine"
)

// secondSeed is the seed later performance claims are re-checked on, in
// addition to the seeds used while a change was written.
const secondSeed = 20260417

func TestInputsDeterministic(t *testing.T) {
	d, err := deploy()
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed int64) []any {
		in, err := makeInputs(d, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		var texts []string
		for i := 0; i < 3*coldBase; i += 7 {
			q, _ := in.coldQuery(d.db, i)
			texts = append(texts, q.String())
		}
		var served []string
		for _, k := range in.hotOrder[:500] {
			served = append(served, in.hotTexts[k])
		}
		return []any{texts, served, in.arrivals, in.staleOrder, in.writers, in.jitter, in.hotNode}
	}
	a, b, c := digest(secondSeed), digest(secondSeed), digest(secondSeed+1)
	names := []string{"cold query texts", "served query texts", "arrival schedule",
		"stale schedule", "rebuild nodes", "write times", "node choices"}
	for i, name := range names {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("%s differ between two runs of one seed", name)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("%s are the same for two seeds", name)
		}
	}
}

func TestColdStreamIsFresh(t *testing.T) {
	d, err := deploy()
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInputs(d, secondSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 4*coldBase; i++ {
		q, _ := in.coldQuery(d.db, i)
		if j, dup := seen[q.String()]; dup {
			t.Fatalf("cold queries %d and %d are the same query", j, i)
		}
		seen[q.String()] = i
	}
}

// The DP layer's work counters repeat exactly across two single-caller
// passes, so later changes can claim them as counts.
func TestDPCountersRepeat(t *testing.T) {
	d, err := deploy()
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInputs(d, secondSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	qs := in.coldBase[:layerQueries]
	a, b := measureDPCounters(d, qs), measureDPCounters(d, qs)
	if a.matchCallsPerQuery != b.matchCallsPerQuery || a.histJoinsPerQuery != b.histJoinsPerQuery {
		t.Errorf("work counters differ between passes: %+v vs %+v", a, b)
	}
	if a.matchCallsPerQuery == 0 || a.histJoinsPerQuery == 0 {
		t.Errorf("counters read zero: %+v", a)
	}
	if raceEnabled {
		t.Log("allocation counts are not checked under -race")
		return
	}
	if a.allocsPerQueryCached != b.allocsPerQueryCached || a.allocsPerQueryCached != 0 {
		t.Errorf("cached-path allocations per query: %v then %v, want 0", a.allocsPerQueryCached, b.allocsPerQueryCached)
	}
}

// childEnv makes the test binary stand in for the benchmark binary in
// runAll's child processes.
const childEnv = "CONDSELBENCH_CHILD"

// TestMain: as a child of runAll the test binary reports its process and
// arguments instead of running a workload.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		fmt.Printf("%d %s\n", os.Getpid(), strings.Join(os.Args[1:], " "))
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Workload order changes no number because --workload all starts every
// workload in a process of its own: no program state (the process-wide
// pool generation counter, the histogram-join cache) carries over from one
// workload to the next.
func TestAllRunsEachWorkloadInItsOwnProcess(t *testing.T) {
	t.Setenv(childEnv, "1")
	var out bytes.Buffer
	if code := runAll(os.Args[0], &out, 7, 3, 1); code != 0 {
		t.Fatalf("runAll exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(workloadNames) {
		t.Fatalf("%d child processes, want one per workload: %q", len(lines), lines)
	}
	pids := map[string]bool{strconv.Itoa(os.Getpid()): true}
	for i, line := range lines {
		pid, args, _ := strings.Cut(line, " ")
		if pids[pid] {
			t.Errorf("workload %s ran in process %s, which an earlier workload or the parent used", workloadNames[i], pid)
		}
		pids[pid] = true
		if want := "--workload " + workloadNames[i] + " --seed 7 --seconds 3 --trace 1"; args != want {
			t.Errorf("child %d got arguments %q, want %q", i, args, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Req: 1, Layer: "a", Start: 0, End: 100},
		{Req: 1, Layer: "b", Parent: "a", Start: 0, End: 30},
		{Req: 1, Layer: "c", Parent: "a", Start: 0, End: 50},
		{Req: 1, Layer: "d", Parent: "c", Start: 0, End: 60},
		{Req: 2, Layer: "a", Start: 0, End: 100},
		{Req: 2, Layer: "b", Parent: "x", Start: 0, End: 30},
	}
	rs := selfTimes(spans)
	if len(rs) != 2 {
		t.Fatalf("got %d requests", len(rs))
	}
	want := map[string]int64{"a": 20, "b": 30, "c": -10, "d": 60}
	if !reflect.DeepEqual(rs[0].self, want) || rs[0].e2e != 100 {
		t.Errorf("self times %v e2e %d", rs[0].self, rs[0].e2e)
	}
	if err := rs[0].reconcile(5); err == nil {
		t.Error("a child 10 ns slower than its parent passed a 5 ns tolerance")
	}
	if err := rs[0].reconcile(10); err != nil {
		t.Error(err)
	}
	if err := rs[1].reconcile(1000); err == nil {
		t.Error("a span whose parent layer has no span passed")
	}
}

// Cold's latency figures are taken over its query shapes' medians: one
// slow run of a shape moves neither, and the samples are dropped.
func TestSummarizeTakesShapeMedians(t *testing.T) {
	ms := int64(time.Millisecond)
	r := &result{main: loopStats{
		// Requests 0..5 alternate between shapes 0 and 1; request 4, the
		// third run of shape 0, is slow.
		lat: []int64{1 * ms, 2 * ms, 1 * ms, 2 * ms, 100 * ms, 2 * ms},
		req: []int{0, 1, 2, 3, 4, 5},
	}}
	r.summarize(2)
	if r.shapes != 2 || r.p50Ms != 1 || r.p90Ms != 2 || r.p99Ms != 2 {
		t.Errorf("over %d shapes p50 %v ms, p90 %v ms, p99 %v ms; want 2 shapes, 1, 2 and 2 ms", r.shapes, r.p50Ms, r.p90Ms, r.p99Ms)
	}
	if r.estP99Ms != 100 || r.samples != 6 {
		t.Errorf("per-estimate p99 %v ms over %d samples, want 100 ms over 6", r.estP99Ms, r.samples)
	}
	if r.main.lat != nil || r.main.req != nil {
		t.Error("the samples were kept")
	}
}

// Every request of every workload's layer pass decomposes: each child
// layer's parent has a span and no self time is below the stated timing
// tolerance. Cold's sample (base queries) and the hot set (the sample of
// served, drift and cluster) are both checked.
func TestLayerPassReconciles(t *testing.T) {
	d, err := deploy()
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInputs(d, secondSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	hot := *in
	hot.coldBase = nil
	samples := []struct {
		name string
		qs   []*engine.Query
	}{{"cold", in.layerQueries()}, {"served, drift, cluster", hot.layerQueries()}}
	for _, sample := range samples {
		tr := &tracer{}
		if _, err := layerPass(context.Background(), d, sample.qs, in.staleOrder[:layerRebuilds], tr); err != nil {
			t.Fatal(err)
		}
		reqs := selfTimes(tr.spans)
		if len(reqs) < 4*len(sample.qs) {
			t.Fatalf("%s: only %d requests traced for %d queries", sample.name, len(reqs), len(sample.qs))
		}
		tol := int64(selfTolNs)
		if raceEnabled {
			// Race instrumentation slows each call by its own factor, so
			// timings no longer show containment; the structure still must.
			tol = math.MaxInt64
		}
		lowest := map[string]int64{}
		for _, rs := range reqs {
			if err := rs.reconcile(tol); err != nil {
				t.Errorf("%s: %v", sample.name, err)
			}
			for l, v := range rs.self {
				if low, ok := lowest[l]; !ok || v < low {
					lowest[l] = v
				}
			}
		}
		t.Logf("%s: lowest self time per layer (ns): %v", sample.name, lowest)
	}
}

// Each workload answers correctly on a short run.
func TestWorkloadsAnswerCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		r, err := runWorkload(context.Background(), name, secondSeed, time.Second, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := r.comp.close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.ck.failures+r.failed != 0 || r.ck.answers == 0 {
			t.Errorf("%s: %d answers, %d failed: %v", name, r.ck.answers, r.ck.failures+r.failed, r.ck.reasons)
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json names %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one the command runs", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, command %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, command %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
