package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"comb/internal/method/collov"
	"comb/internal/method/halo"
	"comb/internal/runpipe"
	"comb/internal/spec"
)

// ranksScale sizes the ranks workload's spec list: for every system and
// node count, a collov allreduce, a collov bcast, a wait-mode and a
// poll-mode halo run, each built from these base parameters.  The
// benchmark's node counts include 32 between 16 and 64 so that the
// median operation falls inside one node count's cluster of latencies,
// not in the gap between two.
type ranksScale struct {
	systems []string
	nodes   []int
	collov  collov.Params
	halo    halo.Params
}

var benchRanks = ranksScale{
	systems: []string{"gm", "portals"},
	nodes:   []int{16, 32, 64},
	collov:  collov.Params{MsgSize: 16 << 10, Reps: 2, WorkGrid: 8, Search: collov.SearchBisect},
	halo:    halo.Params{MsgSize: 8 << 10, Iters: 8, WorkIters: 50_000},
}

// sizeFactors scale a base message size, in eighths.  The seed assigns
// them to a group's four runs, so every seed runs distinct sizes at the
// same total payload, and no run's cost strays far from its base.
var sizeFactors = [4]int{7, 8, 8, 9}

// rankSpecs draws the ranks spec list from the seed.  Message sizes are
// a seed permutation of sizeFactors plus a few seed-drawn bytes, and the
// two halo runs of a group split Iters±1 between them in seed order, so
// the total work barely moves from seed to seed while every key does.
func rankSpecs(seed uint64, sc ranksScale, simWorkers int) []spec.Spec {
	rng := rand.New(rand.NewPCG(seed, 0x72616e6b73))
	var out []spec.Spec
	for _, sys := range sc.systems {
		for _, n := range sc.nodes {
			perm, iters := rng.Perm(len(sizeFactors)), rng.Perm(2)
			size := func(base, slot int) int { return base*sizeFactors[perm[slot]]/8 + rng.IntN(64) }
			for slot, coll := range []string{"allreduce", "bcast"} {
				p := sc.collov
				p.Collective, p.MsgSize = coll, size(sc.collov.MsgSize, slot)
				out = append(out, spec.Spec{Method: "collov", System: sys, Nodes: n, SimWorkers: simWorkers, Params: p})
			}
			for slot, prog := range []string{halo.ProgressWait, halo.ProgressPoll} {
				p := sc.halo
				p.Progress, p.MsgSize = prog, size(sc.halo.MsgSize, slot+2)
				p.Iters = sc.halo.Iters - 1 + 2*iters[slot]
				out = append(out, spec.Spec{Method: "halo", System: sys, Nodes: n, SimWorkers: simWorkers, Params: p})
			}
		}
	}
	return out
}

// ranks runs multi-rank collov and halo specs through runpipe.Run on the
// parallel window engine.  No cache sits on this path: every pass
// simulates every spec.  Its timed operation is one runpipe.Run.
type ranks struct {
	o      options
	sc     ranksScale
	specs  []spec.Spec
	serial []string // each spec's result hash on the serial engine
	lt     tally
}

func newRanks(o options, sc ranksScale) *ranks { return &ranks{o: o, sc: sc} }

func (w *ranks) plan() plan { return plan{setupReps: 3, minPasses: 2, seedApplies: true} }

// setup draws the spec list and runs it once on the serial engine: those
// hashes are the reference every timed pass must reproduce.
func (w *ranks) setup(ctx context.Context) error {
	w.specs = rankSpecs(w.o.Seed, w.sc, w.o.Procs)
	w.serial = make([]string, len(w.specs))
	errs := make([]error, len(w.specs))
	parallel(w.o.Procs, len(w.specs), func(i int) {
		s := w.specs[i]
		s.SimWorkers = 0
		out, err := runpipe.Run(ctx, s)
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", s.Key(), err)
			return
		}
		w.serial[i] = out.Manifest.ResultHash
	})
	return errors.Join(errs...)
}

// pass runs every spec once on the parallel engine; each hash must equal
// the serial engine's.  The traced pass runs the specs through probe,
// whose hashes must match too.
func (w *ranks) pass(ctx context.Context, tr *tracer, p *passStats) error {
	for i, s := range w.specs {
		t0 := time.Now()
		var h string
		var err error
		if tr != nil {
			h, err = w.lt.probe(ctx, tr, tr.root(), s)
		} else {
			var out *runpipe.Outcome
			if out, err = runpipe.Run(ctx, s); err == nil {
				h = out.Manifest.ResultHash
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.Key(), err)
		}
		p.ops = append(p.ops, time.Since(t0).Seconds())
		p.check(h == w.serial[i], "%s: hash %s differs from the serial engine's %s", s.Key(), h, w.serial[i])
	}
	return nil
}

func (w *ranks) finish(_ context.Context, _ *passStats, layers map[string]float64) error {
	if layers != nil {
		w.lt.metrics(layers)
	}
	return nil
}

func (w *ranks) close() {}
