package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share a request id; a span's parent is the span whose call
// caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; writeOut saves them when the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span named name and returns fn's wall time. fn
// receives the span's id to parent nested spans on.
func (t *tracer) do(name string, parent int64, req string, fn func(id int64)) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn(0)
		return time.Since(t0)
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return end.Sub(start)
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	Count   int
	TotalMS float64
	SelfMS  float64
}

// selfTimes returns, per span name, the count, the total duration and
// the self time: each span's duration minus the part of its interval
// its child spans cover (overlapping children counted once).
func selfTimes(spans []span) map[string]*spanStats {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range spans {
		st, ok := out[s.Name]
		if !ok {
			st = &spanStats{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		covered := coveredNS(s.Start, s.End, children[s.ID])
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-covered) / 1e6
	}
	return out
}

// coveredNS is the length of the union of the children's intervals,
// clipped to [start, end].
func coveredNS(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeOut saves every span as one JSON line.
func (t *tracer) writeOut(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}
