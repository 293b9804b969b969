package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

func nowNs() int64 { return time.Now().UnixNano() }

func secondsSince(startNs int64) float64 { return float64(nowNs()-startNs) / 1e9 }

// call prepares request i for worker w outside the timed region and returns
// the timed part, which reports whether the answer was correct.
type call func(w, i int) func() bool

// loopStats is one load phase's outcome. Latencies are in nanoseconds.
type loopStats struct {
	lat       []int64
	req       []int   // closed loop only: the request index of each latency
	lag       []int64 // open loop only: send time minus due time, idle workers
	attempted int
	failed    int
	elapsed   time.Duration
	backlog   int64 // open loop only: backlog growth, see growth
}

func (s *loopStats) merge(o loopStats) {
	s.lat = append(s.lat, o.lat...)
	s.req = append(s.req, o.req...)
	s.lag = append(s.lag, o.lag...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.elapsed += o.elapsed
	if o.backlog > s.backlog {
		s.backlog = o.backlog
	}
}

func (s loopStats) throughput() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(len(s.lat)) / s.elapsed.Seconds()
}

// closedLoop runs the given number of workers, each issuing its next
// request only after the previous one returned, until dur has passed.
// Request indices are handed out in order from first.
func closedLoop(workers int, dur time.Duration, first int, fn call) (loopStats, int) {
	var next atomic.Int64
	next.Store(int64(first))
	deadline := time.Now().Add(dur)
	per := make([]loopStats, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &per[w]
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				do := fn(w, i)
				t0 := nowNs()
				ok := do()
				st.lat = append(st.lat, nowNs()-t0)
				st.req = append(st.req, i)
				st.attempted++
				if !ok {
					st.failed++
				}
			}
		}(w)
	}
	wg.Wait()
	var out loopStats
	for _, p := range per {
		out.merge(p)
	}
	out.elapsed = time.Since(start)
	return out, int(next.Load())
}

// openLoop offers n requests at the given rate on a Poisson schedule built
// from the unit-rate gaps. One pacer goroutine releases each request at its
// due time to the given workers; a request's latency runs from when it was
// due, so a stall charges every request that queued behind it. The
// generator's own lateness (lag) is sampled only when a worker was idle at
// the due time: a busy worker's delay is queueing the program caused.
func openLoop(workers int, rate float64, n int, gaps []float64, first int, fn call) loopStats {
	due := make([]int64, n)
	var t float64
	for i := range due {
		t += gaps[(first+i)%len(gaps)] / rate
		due[i] = int64(t * 1e9)
	}
	type job struct {
		k  int
		at int64
	}
	jobs := make(chan job)
	per := make([]loopStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &per[w]
			for j := range jobs {
				do := fn(w, first+j.k)
				ok := do()
				st.lat = append(st.lat, nowNs()-j.at)
				st.attempted++
				if !ok {
					st.failed++
				}
			}
		}(w)
	}
	var lag []int64
	late := make([]int64, n)
	start := nowNs()
	for k := 0; k < n; k++ {
		at := start + due[k]
		slept := sleepUntil(at)
		select {
		case jobs <- job{k, at}:
			if slept {
				lag = append(lag, nowNs()-at)
			}
		default:
			jobs <- job{k, at}
		}
		late[k] = nowNs() - at
	}
	close(jobs)
	wg.Wait()
	out := loopStats{lag: lag, backlog: growth(late)}
	for _, p := range per {
		out.merge(p)
	}
	out.elapsed = time.Duration(nowNs() - start)
	return out
}

// growth is how much the backlog grew over an open-loop phase: the mean
// time requests waited to be started in its last quarter minus that in its
// first quarter. One stall moves it by the stall's share of a quarter; a
// rate the program cannot sustain moves it without bound.
func growth(late []int64) int64 {
	q := len(late) / 4
	if q == 0 {
		return 0
	}
	var first, last int64
	for i := 0; i < q; i++ {
		first += late[i]
		last += late[len(late)-q+i]
	}
	return (last - first) / int64(q)
}

// sleepUntil waits for the wall-clock instant at (unix ns) and reports
// whether it had to wait. The Go runtime wakes sub-millisecond sleeps up to
// a millisecond late, so only the part of the wait beyond pacerSpin is
// slept; the rest is a yield loop, which keeps the generator's own lag in
// the tens of microseconds.
func sleepUntil(at int64) bool {
	now := nowNs()
	if now >= at {
		return false
	}
	if d := time.Duration(at - now); d > pacerSpin {
		time.Sleep(d - pacerSpin)
	}
	for nowNs() < at {
		runtime.Gosched()
	}
	return true
}

const pacerSpin = 2 * time.Millisecond

// searchFractions are the offered rates of the rate search, as shares of
// the workload's measured capacity, probed in ascending order.
var searchFractions = []float64{0.5, 0.75, 1.0, 1.25}

// rateSearch estimates the highest offered open-loop rate whose p99 stays
// within limit without a growing backlog. It probes ascending shares of the
// capacity estimate for probeDur each (all of them, so a run's length does
// not depend on where the limit falls); the answer interpolates, in the log
// of the probes' figures, between the last passing probe and the first
// missing one, so it moves smoothly with the program's latency instead of
// jumping between probe rates. It returns the rate, the next request index,
// the probes' combined outcome and a one-line description of each probe.
func rateSearch(workers int, capacity float64, limit time.Duration, probeDur time.Duration,
	gaps []float64, first int, fn call) (rate float64, next int, all loopStats, probes []string) {
	lim := float64(limit.Nanoseconds())
	var lastRate, lastP99 float64
	missed := false
	for _, f := range searchFractions {
		r := f * capacity
		n := int(r * probeDur.Seconds())
		if n < 50 {
			n = 50
		}
		st := openLoop(workers, r, n, gaps, first, fn)
		all.merge(st)
		first += n
		// The probe's figure is the larger of its p99 and its backlog
		// growth, so a rate the program cannot sustain misses the limit.
		p99 := math.Max(float64(pctNs(st.lat, 0.99)), float64(st.backlog))
		pass := st.failed == 0 && p99 <= lim
		probes = append(probes, fmt.Sprintf("%.0f/s p99 %.2fms backlog growth %.2fms pass %v",
			r, msQ(st.lat, 0.99), float64(st.backlog)/1e6, pass))
		switch {
		case missed:
		case pass:
			lastRate, lastP99 = r, p99
			rate = r
		case lastRate == 0:
			// Even the lightest probe missed: scale its rate by how far.
			rate, missed = r*lim/p99, true
		default:
			frac := (math.Log(lim) - math.Log(lastP99)) / (math.Log(p99) - math.Log(lastP99))
			rate, missed = lastRate+frac*(r-lastRate), true
		}
	}
	return rate, first, all, probes
}

// pct returns the nearest-rank quantile q of vs (which it sorts).
func pct(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	k := int(math.Ceil(q*float64(len(vs)))) - 1
	if k < 0 {
		k = 0
	}
	return vs[k]
}

func pctNs(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return math.MaxInt64
	}
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func msQ(vs []int64, q float64) float64 { return float64(pctNs(vs, q)) / 1e6 }

func median(vs []float64) float64 { return pct(append([]float64(nil), vs...), 0.5) }
