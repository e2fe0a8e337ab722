package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"comb/internal/obs"
	"comb/internal/runner"
)

// span is one interval the harness traced around a call into a layer.
// Its name is "<layer>.<call>"; parent 0 is the root.
type span struct {
	id, parent int
	name       string
	start, end time.Duration // offsets from the tracer's start; end < 0 while open
}

// tracer keeps a traced pass's spans in memory until the report is
// built.  Every method is a no-op on a nil tracer, so the untraced
// passes run the same code without recording anything.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	pass  int // the open bench.pass span: the root of a workload's spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root is the span a workload hangs its top-level calls under.
func (t *tracer) root() int {
	if t == nil {
		return 0
	}
	return t.pass
}

// start opens a span and returns its id.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: now, end: -1})
	return len(t.spans)
}

func (t *tracer) stop(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records an interval timed elsewhere, such as a runner point span.
func (t *tracer) add(parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name,
		start: start.Sub(t.t0), end: end.Sub(t.t0)})
	t.mu.Unlock()
}

// selfTimes sums each layer's self time in seconds: every span's
// duration minus the part of it that its children cover.  Children may
// overlap each other (pool workers run concurrently), so coverage is
// the union of their intervals.
func (t *tracer) selfTimes() map[string]float64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.parent] = append(kids[s.parent], s)
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.end < s.start {
			continue
		}
		out[layerOf(s.name)] += (s.end - s.start - covered(s, kids[s.id])).Seconds()
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(s span, kids []span) time.Duration {
	var iv [][2]time.Duration
	for _, k := range kids {
		if a, b := max(k.start, s.start), min(k.end, s.end); b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, a, b time.Duration
	for i, x := range iv {
		if i > 0 && x[0] <= b {
			b = max(b, x[1])
			continue
		}
		total += b - a
		a, b = x[0], x[1]
	}
	return total + b - a
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// pointSpan is one point the runner resolved, read from its span hook.
type pointSpan struct {
	start, end time.Time
	simulated  bool // source "run": simulated, not recalled from a cache tier
}

// window is one traced call during which the runner resolved points.
type window struct {
	id         int
	start, end time.Time
	dispatch   bool // the call fans points out to the engine's workers
}

// pointSpans converts the engine's span ring, whose offsets count from
// the engine's construction at base, into wall-clock intervals.
func pointSpans(col *obs.Collector, base time.Time) []pointSpan {
	var out []pointSpan
	for _, s := range col.Capture().Spans {
		src := ""
		for _, kv := range s.Args {
			if kv.K == "source" {
				src = kv.V
			}
		}
		out = append(out, pointSpan{start: base.Add(s.Start), end: base.Add(s.Start + s.Dur),
			simulated: src == string(runner.FromRun)})
	}
	return out
}

// runnerLayers files each point span under the traced call that
// resolved it and derives the runner layer's metrics: its cache
// counters, the longest simulated point, and the worker time that no
// point occupied while a dispatching call ran.
func runnerLayers(tr *tracer, eng *runner.Engine, points []pointSpan, wins []window) map[string]float64 {
	var capacity, busy, longest time.Duration
	for _, w := range wins {
		if w.dispatch {
			capacity += time.Duration(eng.Workers()) * w.end.Sub(w.start)
		}
	}
	for _, pt := range points {
		parent := tr.root()
		for _, w := range wins {
			if !pt.start.Before(w.start) && !pt.start.After(w.end) {
				parent = w.id
				if w.dispatch {
					busy += pt.end.Sub(pt.start)
				}
				break
			}
		}
		tr.add(parent, "runner.point", pt.start, pt.end)
		if pt.simulated {
			longest = max(longest, pt.end.Sub(pt.start))
		}
	}
	st := eng.Stats()
	return map[string]float64{
		"runner.runs":        float64(st.Runs),
		"runner.mem_hits":    float64(st.MemHits),
		"runner.calib_hits":  float64(st.CalibHits),
		"runner.shared_hits": float64(st.SharedHits),
		"runner.point_max_s": longest.Seconds(),
		"runner.idle_s":      (capacity - busy).Seconds(),
	}
}
