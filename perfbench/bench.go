package main

import (
	"context"
	"fmt"
	"time"
)

// workload is one benchmark workload.  execute drives it: set-up
// (repeated; the last one is kept), timed passes until the budget is
// spent, an optional traced pass, then finish for the gates and counter
// collection that stay outside the timed window.
type workload interface {
	plan() plan
	// setup prepares a pass-ready state, releasing any earlier one.
	setup(ctx context.Context) error
	// pass runs one timed unit of work; tr is nil when untraced.
	pass(ctx context.Context, tr *tracer, p *passStats) error
	// finish runs the untimed gates; when layers is non-nil (a traced
	// run) it also files the workload's per-layer metrics there.
	finish(ctx context.Context, p *passStats, layers map[string]float64) error
	close()
}

// plan is a workload's fixed shape.
type plan struct {
	setupReps   int  // set-ups per run: setup_s is their median
	minPasses   int  // timed passes run even when the budget is spent
	seedApplies bool // false: the workload runs fixed committed inputs
}

// passStats accumulates gate outcomes and operation latencies.
type passStats struct {
	attempted, failed int
	failures          []string  // the first few gate failures, for the report
	ops               []float64 // seconds per timed operation
	hot, cold         []float64 // serve-mix's split of ops, seconds
}

const maxFailures = 8

// check records one gated output; ok false counts it as failed.
func (p *passStats) check(ok bool, format string, args ...any) {
	p.attempted++
	if ok {
		return
	}
	p.failed++
	if len(p.failures) < maxFailures {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds another pass's gate outcomes in; its latencies stay out.
func (p *passStats) merge(q passStats) {
	p.attempted += q.attempted
	p.failed += q.failed
	for _, f := range q.failures {
		if len(p.failures) < maxFailures {
			p.failures = append(p.failures, f)
		}
	}
}

// execute runs one workload and assembles its report.  End-to-end
// numbers come from the untraced passes only; the traced pass, when
// asked for, runs after them and yields the per-layer numbers and the
// tracing overhead.
func execute(ctx context.Context, name string, w workload, o options) (*report, error) {
	defer w.close()
	pl := w.plan()
	r := &report{Workload: name, Stamp: hostStamp(o.Root, o.Seed), SeedApplies: pl.seedApplies,
		Traced: o.Trace, Metrics: map[string]summary{}}
	var setups []float64
	for i := 0; i < max(pl.setupReps, 1); i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var ps passStats
	var walls, cpus []float64
	start := time.Now()
	for len(walls) < max(pl.minPasses, 1) || time.Since(start).Seconds() < o.Seconds {
		c0, t0 := cpuSeconds(), time.Now()
		if err := w.pass(ctx, nil, &ps); err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSeconds()-c0)
	}
	if len(ps.ops) == 0 {
		return nil, fmt.Errorf("the passes timed no operation")
	}
	r.Passes = len(walls)
	r.Metrics["wall_s"] = spread("s", walls, 1)
	r.Metrics["cpu_s"] = spread("s", cpus, 1)
	r.Metrics["op_mean_ms"] = summary{Unit: "ms", Value: sum(ps.ops) / float64(len(ps.ops)) * 1e3, N: len(ps.ops)}
	r.Metrics["op_p50_ms"] = spread("ms", ps.ops, 1e3)
	r.Metrics["op_p95_ms"] = tailOf("ms", ps.ops, 95, 1e3)
	r.Metrics["setup_s"] = spread("s", setups, 1)
	if len(ps.hot) > 0 && len(ps.cold) > 0 {
		r.Metrics["hot_p50_ms"] = spread("ms", ps.hot, 1e3)
		r.Metrics["hot_p99_ms"] = tailOf("ms", ps.hot, 99, 1e3)
		r.Metrics["cold_p50_ms"] = spread("ms", ps.cold, 1e3)
		r.Metrics["cold_p90_ms"] = tailOf("ms", ps.cold, 90, 1e3)
		r.Metrics["throughput_rps"] = summary{Unit: "1/s", Value: float64(len(ps.ops)) / sum(walls)}
	}

	var tr *tracer
	if o.Trace {
		tr = newTracer()
		var tp passStats
		t0 := time.Now()
		tr.pass = tr.start(0, "bench.pass")
		err := w.pass(ctx, tr, &tp)
		tr.stop(tr.pass)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		r.Layers = map[string]float64{"trace.overhead_s": time.Since(t0).Seconds() - r.Metrics["wall_s"].Value}
		ps.merge(tp)
	}
	if err := w.finish(ctx, &ps, r.Layers); err != nil {
		return nil, err
	}
	if tr != nil {
		r.SelfS = tr.selfTimes()
		r.Absent = absentLayers(r.Layers)
	}
	r.Metrics["rss_mb"] = summary{Unit: "MB", Value: peakRSSMB()}
	r.Attempted, r.Failed, r.Failures = ps.attempted, ps.failed, ps.failures
	r.ErrorRate = ratio(float64(ps.failed), float64(ps.attempted))
	return r, nil
}
