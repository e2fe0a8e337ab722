package sweep

import (
	"fmt"
	"sync/atomic"

	"comb/internal/core"
	"comb/internal/obs"
	"comb/internal/runner"
	"comb/internal/stats"
	"comb/internal/strategy"
)

// This file is the sweep.Strategy layer: it adapts the pure searches of
// internal/strategy to sweep curves, so figures can spend engine runs
// where the structure is (thresholds, knees, noisy points) instead of
// evaluating every dense-grid point.  Every evaluation still goes
// through the runner engine, so points a search revisits — or that an
// earlier dense sweep already ran — are cache hits.

// Strategy re-exports the strategy spec type: Options.Strategy picks
// how RunCurve spends its evaluations.
type Strategy = strategy.Spec

// SweepStats counts what a strategy-driven build did, for figure
// manifests and tests.  Fields are atomic so concurrent curve builds
// can share one collector.
type SweepStats struct {
	// Evaluated counts engine evaluations issued (repetitions included).
	Evaluated atomic.Int64
	// Skipped counts dense-axis points a search never touched.
	Skipped atomic.Int64
}

// Curve is one sweep series a strategy can search: a dense axis and an
// evaluator mapping an axis value to the plotted (x, y) coordinate.
// For interval figures px is the axis value itself; availability
// re-plots return the measured availability instead.  rep is 0 except
// under adaptive-reps, where rep r re-measures the point with the
// perturbed seed RepSeed(0, r).
type Curve struct {
	Name string
	Axis []int64
	Eval func(x int64, rep int) (px, py float64, err error)
}

// RepSeed derives the spec seed of repetition rep from a base seed:
// rep 0 keeps the base (so single-shot sweeps hit the classic cache
// keys), later reps perturb it deterministically.
func RepSeed(base uint64, rep int) uint64 {
	if rep == 0 {
		return base
	}
	return base + uint64(rep)
}

// RunCurve evaluates one curve under the Options strategy and returns
// its series: every dense point for grid, the searched subset for
// bisect/knee, and CI-annotated points for adaptive-reps.  The grid
// path visits the axis in order with rep 0 only, so its series is
// bit-identical to the classic dense loop.
func RunCurve(opt Options, c Curve) (stats.Series, error) {
	st := opt.Strategy
	if !st.IsGrid() {
		cp := *st
		if err := cp.Validate(); err != nil {
			return stats.Series{}, fmt.Errorf("sweep: %s: %w", c.Name, err)
		}
		st = &cp
	}
	n := len(c.Axis)
	// The plotted x of each evaluated index, captured at rep 0 (the
	// searches evaluate rep 0 first, so every sampled index has one).
	px := make([]float64, n)
	seen := make([]bool, n)
	eval := func(i, rep int) (float64, error) {
		x, y, err := c.Eval(c.Axis[i], rep)
		if err != nil {
			return 0, err
		}
		if !seen[i] {
			px[i], seen[i] = x, true
		}
		return y, nil
	}
	r, err := strategy.Run(st, n, eval)
	if err != nil {
		return stats.Series{}, fmt.Errorf("sweep: curve %s: %w", c.Name, err)
	}
	s := stats.Series{Name: c.Name}
	for _, sm := range r.Samples {
		if sm.Reps > 0 {
			s.AddCI(px[sm.Index], sm.Y, sm.Lo, sm.Hi, sm.Reps)
		} else {
			s.Add(px[sm.Index], sm.Y)
		}
	}
	opt.countCurve(st, int64(r.Evals), int64(n-len(r.Samples)))
	return s, nil
}

// countCurve records one finished curve in the sweep counters and, when
// a registry is attached, the comb_sweep_points_*_total metrics.
func (o Options) countCurve(st *strategy.Spec, evaluated, skipped int64) {
	if o.Stats != nil {
		o.Stats.Evaluated.Add(evaluated)
		o.Stats.Skipped.Add(skipped)
	}
	if o.Obs != nil {
		name := strategy.Grid
		if st != nil {
			name = st.Name
		}
		o.Obs.Counter(fmt.Sprintf("comb_sweep_points_evaluated_total{strategy=%q}", name),
			"sweep-axis evaluations issued to the engine, by strategy (repetitions included)").Add(evaluated)
		o.Obs.Counter(fmt.Sprintf("comb_sweep_points_skipped_total{strategy=%q}", name),
			"dense sweep-axis points a search strategy never evaluated, by strategy").Add(skipped)
	}
}

// Re-exported observability hook type, so cmd/comb can hand the sweep
// the same registry its engine reports into.
type Registry = obs.Registry

// pollingPointRep is pollingPointSpec with a repetition seed.
func pollingPointRep(system string, size int, poll int64, rep int) runner.Point {
	p := pollingPointSpec(system, size, poll)
	p.Seed = RepSeed(0, rep)
	return p
}

// pwwPointRep is pwwPointSpec with a repetition seed.
func pwwPointRep(system string, size int, work int64, reps int, testInWork bool, rep int) runner.Point {
	p := pwwPointSpec(system, size, work, reps, testInWork)
	p.Seed = RepSeed(0, rep)
	return p
}

// pollingPointAt runs (or recalls) repetition rep of one polling-method
// sample on the Options engine.
func pollingPointAt(o Options, system string, size int, poll int64, rep int) (*core.PollingResult, error) {
	return runner.RunAs[*core.PollingResult](o.ctx(), o.engine(), pollingPointRep(system, size, poll, rep))
}

// pwwPointAt runs (or recalls) repetition rep of one PWW sample on the
// Options engine.
func pwwPointAt(o Options, system string, size int, work int64, reps int, testInWork bool, rep int) (*core.PWWResult, error) {
	return runner.RunAs[*core.PWWResult](o.ctx(), o.engine(), pwwPointRep(system, size, work, reps, testInWork, rep))
}
