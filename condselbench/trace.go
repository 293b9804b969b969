package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call into a program layer, made from the benchmark's
// own code. Spans of one request share Req; Parent names the enclosing
// layer ("" for a request's root).
type span struct {
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing, which is the untraced configuration.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(req int64, layer, parent string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Layer: layer, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestSelf is one request's end-to-end time (its root spans), the self
// time of each layer it passed through, and the parent layers its spans
// name that have no span of their own in the request.
type requestSelf struct {
	req     int64
	e2e     int64
	self    map[string]int64
	orphans []string
}

// selfTimes computes each layer's self time for every request of a layer
// pass: the layer's span minus the spans of its child layers. The layers of
// a request are timed in separate calls on the same input, so a self time
// is the difference of two measurements and is not clamped: it reads
// negative when a child call is slower than its parent call, that is when
// the child is not part of the parent's work or the parent's own cost is
// below the timing noise. When every parent has a span, the self times sum
// to the end-to-end time exactly, by construction.
func selfTimes(spans []span) []requestSelf {
	byReq := map[int64][]span{}
	var order []int64
	for _, s := range spans {
		if _, ok := byReq[s.Req]; !ok {
			order = append(order, s.Req)
		}
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	out := make([]requestSelf, 0, len(order))
	for _, req := range order {
		rs := requestSelf{req: req, self: map[string]int64{}}
		for _, s := range byReq[req] {
			rs.self[s.Layer] += s.dur()
			if s.Parent == "" {
				rs.e2e += s.dur()
			}
		}
		for _, s := range byReq[req] {
			if s.Parent == "" {
				continue
			}
			if _, ok := rs.self[s.Parent]; !ok {
				rs.orphans = append(rs.orphans, s.Layer)
				continue
			}
			rs.self[s.Parent] -= s.dur()
		}
		out = append(out, rs)
	}
	return out
}

// reconcile checks one request's decomposition: it has an end-to-end span,
// every child layer's parent has a span (so the self times sum to the
// end-to-end time), and no self time is below -tolNs, the timing noise
// allowed a difference of two separately timed calls.
func (rs requestSelf) reconcile(tolNs int64) error {
	if rs.e2e <= 0 {
		return fmt.Errorf("request %d: no end-to-end span", rs.req)
	}
	if len(rs.orphans) > 0 {
		return fmt.Errorf("request %d: layers %v have no parent span", rs.req, rs.orphans)
	}
	for layer, s := range rs.self {
		if s < -tolNs {
			return fmt.Errorf("request %d: layer %s self time %d ns is below -%d ns", rs.req, layer, s, tolNs)
		}
	}
	return nil
}
