package main

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"time"

	"comb/internal/obs"
	"comb/internal/runner"
	"comb/internal/scenario"
	"comb/internal/spec"
)

// oracle runs the scenario oracle in process, as `comb selfcheck -pack
// all` does: every pack on one engine per pass, then the relations.  Its
// timed operation is one simulated cell.
type oracle struct {
	o         options
	names     []string // packs to run; nil runs every committed pack
	wantCells int
	packs     []*scenario.Pack
	cells     []spec.Spec // distinct cell specs of the traced pass, for the counter replay
	lt        tally
	sl        map[string]float64 // runner and scenario metrics of the traced pass
}

func newOracle(o options, names []string, wantCells int) *oracle {
	return &oracle{o: o, names: names, wantCells: wantCells}
}

func (w *oracle) plan() plan { return plan{setupReps: 25, minPasses: 1} }

func (w *oracle) setup(context.Context) error {
	packs, err := scenario.LoadDir(filepath.Join(w.o.Root, "testdata", "scenarios"))
	if err != nil {
		return err
	}
	w.packs = packs
	if w.names != nil {
		w.packs = nil
		for _, n := range w.names {
			p, err := scenario.Find(packs, n)
			if err != nil {
				return err
			}
			w.packs = append(w.packs, p)
		}
	}
	return nil
}

// pass runs and evaluates every pack.  Every cell must complete, no
// relation may be violated, and the cell count must be the expected one.
func (w *oracle) pass(ctx context.Context, tr *tracer, p *passStats) error {
	col := obs.NewCollector(1<<13, nil)
	base := time.Now()
	eng := runner.New(runner.Config{Workers: w.o.Procs, Timeout: scenario.CellTimeout, Spans: col})
	var wins []window
	var runT, evalT time.Duration
	cells, violations := 0, 0
	seen := map[string]bool{}
	for _, pk := range w.packs {
		t0 := time.Now()
		id := tr.start(tr.root(), "scenario.Run")
		m, err := scenario.Run(ctx, pk, scenario.Options{Engine: eng})
		tr.stop(id)
		t1 := time.Now()
		wins = append(wins, window{id: id, start: t0, end: t1, dispatch: true})
		if err != nil {
			return fmt.Errorf("pack %s: %w", pk.Name, err)
		}
		for _, c := range m.Cells {
			cells++
			p.check(c.Err == nil, "pack %s cell %s: %v", pk.Name, c.Key, c.Err)
			if tr != nil && !seen[c.Key] {
				seen[c.Key] = true
				w.cells = append(w.cells, c.Spec)
			}
		}
		id = tr.start(tr.root(), "scenario.Evaluate")
		vs := scenario.Evaluate(ctx, m)
		tr.stop(id)
		t2 := time.Now()
		wins = append(wins, window{id: id, start: t1, end: t2})
		runT += t1.Sub(t0)
		evalT += t2.Sub(t1)
		violations += len(vs)
		for _, v := range vs {
			p.check(false, "%v", v)
		}
	}
	p.check(cells == w.wantCells, "%d cells ran, want %d", cells, w.wantCells)
	points := pointSpans(col, base)
	for _, pt := range points {
		if pt.simulated {
			p.ops = append(p.ops, pt.end.Sub(pt.start).Seconds())
		}
	}
	if tr != nil {
		w.sl = runnerLayers(tr, eng, points, wins)
		w.sl["scenario.cells"] = float64(cells)
		w.sl["scenario.run_s"] = runT.Seconds()
		w.sl["scenario.evaluate_s"] = evalT.Seconds()
		w.sl["scenario.violations"] = float64(violations)
	}
	return nil
}

// finish replays the traced pass's cells through probe for the layer
// counters, fault-injection counts included.
func (w *oracle) finish(ctx context.Context, _ *passStats, layers map[string]float64) error {
	if layers == nil {
		return nil
	}
	if err := w.lt.replay(ctx, w.o.Procs, w.cells); err != nil {
		return err
	}
	w.lt.metrics(layers)
	maps.Copy(layers, w.sl)
	return nil
}

func (w *oracle) close() {}
