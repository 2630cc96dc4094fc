package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
)

// span is one timed call into a layer, recorded by the benchmark around an
// exported function or interface of the module the name starts with.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the recorder's epoch
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the parent span, -1 for a root
	ID     string        `json:"id"`     // repetition or request ID
	Bench  string        `json:"bench,omitempty"`
	Kind   string        `json:"kind,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use. A nil recorder, or one switched off, records nothing:
// begin returns -1 and end ignores it, so instrumented code needs no
// branches of its own.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// setOn switches recording on or off (no-op on a nil recorder).
func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// enabled reports whether spans are being recorded.
func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// begin opens a span and returns its index (-1 when not recording).
func (r *recorder) begin(name string, parent int, id, bench, kind string) int {
	if !r.enabled() {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id, Bench: bench, Kind: kind})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// progress records a runner completion event as a span named after what
// the engine did with the spec: executed (runner.<kind>), served by the
// artifact store (runner.store_hit) or by the in-memory cache, possibly
// after waiting for an in-flight execution (runner.join). The event comes
// at completion, so the span's start is its end minus the elapsed time.
func (r *recorder) progress(p runner.Progress) {
	if !r.enabled() {
		return
	}
	end := time.Since(r.epoch)
	name := "runner." + p.Kind
	switch {
	case p.FromStore:
		name = "runner.store_hit"
	case p.Cached:
		name = "runner.join"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: end - p.Elapsed, End: end, Parent: -1, ID: p.Key, Bench: p.Bench, Kind: p.Kind})
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns each span's self time: the part of its interval in
// which it is the deepest open span of its tree (ties go to the span that
// opened last). For properly nested spans this is the span's duration
// minus what its children cover. For a labd request, whose server-side
// spans overlap both the client's submit and its wait, it still splits the
// request's time into parts that add up to it exactly.
func selfTimes(spans []span) []time.Duration {
	n := len(spans)
	depth := make([]int, n)
	root := make([]int, n)
	for i := range spans {
		d, j := 0, i
		for spans[j].Parent >= 0 {
			j = spans[j].Parent
			d++
		}
		depth[i], root[i] = d, j
	}
	trees := make(map[int][]int)
	for i := range spans {
		trees[root[i]] = append(trees[root[i]], i)
	}
	self := make([]time.Duration, n)
	for _, members := range trees {
		var cuts []time.Duration
		for _, i := range members {
			cuts = append(cuts, spans[i].Start, spans[i].End)
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		for c := 0; c+1 < len(cuts); c++ {
			a, b := cuts[c], cuts[c+1]
			if a == b {
				continue
			}
			best := -1
			for _, i := range members {
				s := spans[i]
				if s.Start > a || s.End < b {
					continue
				}
				if best < 0 || depth[i] > depth[best] ||
					(depth[i] == depth[best] && s.Start >= spans[best].Start) {
					best = i
				}
			}
			if best >= 0 {
				self[best] += b - a
			}
		}
	}
	return self
}

// layer aggregates the spans of one name.
type layer struct {
	Name  string
	Calls int
	Self  time.Duration   // summed self time
	Durs  []time.Duration // inclusive durations, for percentiles
}

// layers aggregates spans by name, in name order.
func layers(spans []span, self []time.Duration) []*layer {
	by := make(map[string]*layer)
	for i, s := range spans {
		l := by[s.Name]
		if l == nil {
			l = &layer{Name: s.Name}
			by[s.Name] = l
		}
		l.Calls++
		l.Self += self[i]
		l.Durs = append(l.Durs, s.dur())
	}
	out := make([]*layer, 0, len(by))
	for _, l := range by {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// printLayers writes the per-layer self-time table of a traced run.
// capacity is the worker-time the shares are taken of.
func printLayers(w io.Writer, ls []*layer, capacity time.Duration) {
	fmt.Fprintf(w, "%-28s %8s %10s %8s %10s %10s\n", "layer", "calls", "self s", "self %", "p50 ms", "p99 ms")
	var total time.Duration
	for _, l := range ls {
		ms := make([]float64, len(l.Durs))
		for i, d := range l.Durs {
			ms[i] = float64(d.Nanoseconds()) / 1e6
		}
		fmt.Fprintf(w, "%-28s %8d %10.4f %8.2f %10.3f %10.3f\n", l.Name, l.Calls, l.Self.Seconds(),
			pct(l.Self, capacity), percentile(ms, 0.50), percentile(ms, 0.99))
		total += l.Self
	}
	fmt.Fprintf(w, "%-28s %8s %10.4f %8.2f   (of %.4f s capacity)\n", "total", "", total.Seconds(), pct(total, capacity), capacity.Seconds())
}

// pct is part as a percentage of whole (0 when whole is 0).
func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// selfPct sets <name>.self_pct for every layer, as a share of capacity.
func selfPct(m metrics, ls []*layer, capacity time.Duration) {
	for _, l := range ls {
		m.set(l.Name+".self_pct", pct(l.Self, capacity), "%")
	}
}
