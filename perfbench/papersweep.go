package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"comb/internal/obs"
	"comb/internal/runner"
	"comb/internal/spec"
	"comb/internal/sweep"
)

// paperSweep regenerates paper figures at full resolution on a fresh
// runner engine per pass (no disk tier) and diffs every CSV against its
// committed golden.  Its timed operation is one simulated point.
type paperSweep struct {
	o      options
	ids    []string
	figs   []sweep.Figure
	golden map[string]string
	points []spec.Spec // the figures' distinct points, for the counter replay
	lt     tally
	rl     map[string]float64 // runner and sweep metrics of the traced pass
}

func newPaperSweep(o options, ids []string) *paperSweep { return &paperSweep{o: o, ids: ids} }

func (w *paperSweep) plan() plan { return plan{setupReps: 25, minPasses: 1} }

// setup looks the figures up, loads their goldens and lists their
// distinct points.
func (w *paperSweep) setup(context.Context) error {
	w.figs, w.golden, w.points = nil, map[string]string{}, nil
	seen := map[string]bool{}
	for _, id := range w.ids {
		f, err := sweep.ByID(id)
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(w.o.Root, "results", fmt.Sprintf("fig%02d.csv", n)))
		if err != nil {
			return err
		}
		w.figs = append(w.figs, f)
		w.golden[id] = string(b)
		for _, pt := range f.Points(sweep.Options{}) {
			if k := pt.Key(); !seen[k] {
				seen[k] = true
				w.points = append(w.points, pt)
			}
		}
	}
	return nil
}

// pass prewarms each figure's points through RunAll, then builds the
// figure (memo hits plus shaping) and diffs its CSV.
func (w *paperSweep) pass(ctx context.Context, tr *tracer, p *passStats) error {
	col := obs.NewCollector(1<<13, nil)
	base := time.Now()
	eng := runner.New(runner.Config{Workers: w.o.Procs, Spans: col})
	opt := sweep.Options{Engine: eng, Context: ctx}
	var wins []window
	var shape time.Duration
	for _, f := range w.figs {
		t0 := time.Now()
		id := tr.start(tr.root(), "runner.RunAll")
		err := eng.RunAll(ctx, f.Points(opt))
		tr.stop(id)
		t1 := time.Now()
		wins = append(wins, window{id: id, start: t0, end: t1, dispatch: true})
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.ID, err)
		}
		id = tr.start(tr.root(), "sweep.Build")
		tbl, err := f.Build(opt)
		tr.stop(id)
		t2 := time.Now()
		wins = append(wins, window{id: id, start: t1, end: t2})
		shape += t2.Sub(t1)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.ID, err)
		}
		p.check(tbl.CSV() == w.golden[f.ID], "figure %s: CSV differs from its committed golden", f.ID)
	}
	points := pointSpans(col, base)
	for _, pt := range points {
		if pt.simulated {
			p.ops = append(p.ops, pt.end.Sub(pt.start).Seconds())
		}
	}
	if tr != nil {
		w.rl = runnerLayers(tr, eng, points, wins)
		w.rl["sweep.shape_ms"] = shape.Seconds() * 1e3
	}
	return nil
}

// finish replays every point through probe when traced: the runner
// hides its platforms, so the layer counters come from these replays.
// They skip the runner's dry-run calibration memo, so the counts are
// those of cold, stand-alone runs and repeat exactly.
func (w *paperSweep) finish(ctx context.Context, _ *passStats, layers map[string]float64) error {
	if layers == nil {
		return nil
	}
	if err := w.lt.replay(ctx, w.o.Procs, w.points); err != nil {
		return err
	}
	w.lt.metrics(layers)
	maps.Copy(layers, w.rl)
	return nil
}

func (w *paperSweep) close() {}
