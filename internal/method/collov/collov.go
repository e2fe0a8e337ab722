// Package collov registers the "collov" method: collective/computation
// overlap measured with OpenHPCA's max-work-injection algorithm on the
// N-rank communicator.
//
// The measurement first times a reference collective (allreduce or
// bcast) with no computation, then injects increasing amounts of CPU
// work between the collective's initiation (Iallreduce/Ibcast) and its
// completion wait.  On a system whose collectives progress without host
// help, injected work hides inside the collective and completion time
// barely moves; on a host-progressed system the collective stalls while
// the CPU computes, and even small injections push completion past the
// reference.  The reported figure is the largest injected work that
// keeps completion within the target ratio of the reference — found by
// strategy-driven bisection over the work axis (O(log n) engine rounds)
// or, for calibration, a dense grid.
package collov

import (
	"context"
	"fmt"
	"time"

	"comb/internal/mpi"
	"comb/internal/obs"
	"comb/internal/platform"
	"comb/internal/sim"
	"comb/internal/strategy"
)

// Target is the completion-time ratio that defines "exceeded": the
// search reports the largest injected work whose collective completion
// stays within Target × the reference time (OpenHPCA uses the same
// form of threshold on its reference measurement).
const Target = 1.05

// axisHeadroom sizes the work axis: the largest injectable work level
// costs axisHeadroom × the reference time, so a fully-overlapping
// system still crosses Target before the axis runs out.
const axisHeadroom = 1.5

// Result is one collective-overlap measurement.
type Result struct {
	System     string
	Collective string
	MsgSize    int
	Nodes      int
	Reps       int
	Search     string
	// RefTime is the per-invocation reference collective time with no
	// injected work.
	RefTime time.Duration
	// MaxWorkIters is the largest injected per-invocation work (in
	// simulated loop iterations) whose completion stayed within
	// Target × RefTime; MaxWorkTime is its CPU cost.
	MaxWorkIters int64
	MaxWorkTime  time.Duration
	// OverlapFraction is MaxWorkTime / RefTime: ~0 when the host must
	// drive the collective, ~1 when it progresses independently.
	OverlapFraction float64
	// StepFraction is the work axis resolution in the same units as
	// OverlapFraction — the quantization of the answer.
	StepFraction float64
	// Probes counts the work levels actually measured (the bisection's
	// engine rounds; a dense grid measures every level).
	Probes int
	// GridPoints is the full axis size the search ran over.
	GridPoints int
}

// String gives a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("collov %s %s n=%d size=%dB: ref %v, max work %v (%.2f overlap, %d/%d probes)",
		r.System, r.Collective, r.Nodes, r.MsgSize, r.RefTime, r.MaxWorkTime,
		r.OverlapFraction, r.Probes, r.GridPoints)
}

// measure runs the max-work-injection protocol on an already-built
// platform instance.
func measure(ctx context.Context, in *platform.Instance, system string, p Params, spans *obs.Collector) (*Result, error) {
	nodes := len(in.Comms)
	gridPoints := p.WorkGrid + 1

	// startColl posts the configured nonblocking collective, length-only:
	// nothing reads the bulk payload, and its costs come from its length.
	startColl := func(pr *sim.Proc, c *mpi.Comm) *mpi.CollReq {
		if p.Collective == "bcast" {
			return c.IbcastLen(pr, 0, p.MsgSize)
		}
		return c.IallreduceLen(pr, p.MsgSize)
	}

	// Everything below runs in virtual time, so every rank derives the
	// same axis and the rank-0 search is bit-deterministic across the
	// serial and parallel engines.  Only rank 0 writes the shared
	// variables; they are read after the run.
	type probe struct {
		level      int
		start, end sim.Time
	}
	var (
		refTime   sim.Time
		refStart  sim.Time
		probes    []probe
		searchRes *strategy.Result
		searchErr error
	)

	err := in.RunContext(ctx, func(pr *sim.Proc, c *mpi.Comm) {
		rank := c.Rank()
		node := in.Sys.Nodes[rank]

		// round runs one timed measurement at the given injected work
		// level and returns the mean per-invocation completion time.
		round := func(workIters int64) sim.Time {
			c.Barrier(pr)
			t0 := pr.Now()
			for i := 0; i < p.Reps; i++ {
				r := startColl(pr, c)
				if workIters > 0 {
					node.Work(pr, workIters)
				}
				c.CollWait(pr, r)
			}
			return (pr.Now() - t0) / sim.Time(p.Reps)
		}

		// Warmup: one untimed collective settles connection state.
		c.Barrier(pr)
		c.CollWait(pr, startColl(pr, c))

		// Reference: the collective alone.
		t0 := pr.Now()
		ref := round(0)
		if rank == 0 {
			refStart, refTime = t0, ref
		}

		// All ranks build the same work axis from rank 0's reference:
		// gridPoints levels from zero to axisHeadroom × ref worth of CPU
		// work.  Rank 0 broadcasts the max level so clock skew between
		// ranks cannot fork the axis.
		ctl := make([]byte, 8)
		if rank == 0 {
			putInt64(ctl, workItersFor(in, axisHeadroom*float64(ref)))
		}
		c.Bcast(pr, 0, ctl)
		maxWork := getInt64(ctl)
		axis := make([]int64, gridPoints)
		for i := range axis {
			axis[i] = maxWork * int64(i) / int64(p.WorkGrid)
		}

		if rank == 0 {
			// The search drives every rank: each eval broadcasts its work
			// level, all ranks run the round, and rank 0 turns its own
			// completion time into the target ratio.  A negative level
			// releases the other ranks when the search finishes.
			eval := func(i, rep int) (float64, error) {
				putInt64(ctl, int64(i))
				c.Bcast(pr, 0, ctl)
				start := pr.Now()
				op := round(axis[i])
				probes = append(probes, probe{level: i, start: start, end: pr.Now()})
				return float64(op) / float64(ref), nil
			}
			if p.Search == SearchGrid {
				searchRes, searchErr = strategy.RunGrid(gridPoints, eval)
			} else {
				searchRes, searchErr = strategy.RunBisect(gridPoints, Target, eval)
			}
			putInt64(ctl, -1)
			c.Bcast(pr, 0, ctl)
		} else {
			for {
				c.Bcast(pr, 0, ctl)
				level := getInt64(ctl)
				if level < 0 {
					break
				}
				round(axis[level])
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if searchErr != nil {
		return nil, fmt.Errorf("collov: search failed: %w", searchErr)
	}
	if searchRes == nil {
		return nil, fmt.Errorf("collov: no rank-0 search result")
	}

	if spans != nil {
		spans.Span(obs.CatPhase, "ref", 0, time.Duration(refStart), time.Duration(refStart+refTime*sim.Time(p.Reps)))
		for _, pb := range probes {
			spans.Span(obs.CatPhase, "probe", 0, time.Duration(pb.start), time.Duration(pb.end),
				"level", fmt.Sprint(pb.level))
		}
	}

	// The crossing: the smallest level whose ratio exceeded Target.  The
	// grid strategy never fills CrossIndex, so derive it from the
	// samples either way; the answer is the level just below.
	cross := -1
	for _, s := range searchRes.Samples {
		if s.Y >= Target {
			cross = s.Index
			break
		}
	}
	maxLevel := p.WorkGrid // never exceeded: the whole axis fits
	if cross == 0 {
		maxLevel = 0
	} else if cross > 0 {
		maxLevel = cross - 1
	}

	maxWork := int64(0)
	if len(searchRes.Samples) > 0 {
		// Recompute the axis exactly as the ranks did.
		total := workItersFor(in, axisHeadroom*float64(refTime))
		maxWork = total * int64(maxLevel) / int64(p.WorkGrid)
	}
	res := &Result{
		System:       system,
		Collective:   p.Collective,
		MsgSize:      p.MsgSize,
		Nodes:        nodes,
		Reps:         p.Reps,
		Search:       p.Search,
		RefTime:      time.Duration(refTime),
		MaxWorkIters: maxWork,
		MaxWorkTime:  time.Duration(in.Sys.P.WorkTime(maxWork)),
		Probes:       searchRes.Evals,
		GridPoints:   gridPoints,
	}
	if refTime > 0 {
		res.OverlapFraction = float64(res.MaxWorkTime) / float64(refTime)
		step := workItersFor(in, axisHeadroom*float64(refTime)) / int64(p.WorkGrid)
		res.StepFraction = float64(in.Sys.P.WorkTime(step)) / float64(refTime)
	}
	return res, nil
}

// workItersFor converts a CPU-time budget into whole work iterations on
// the instance's platform (at least one per nonzero budget).
func workItersFor(in *platform.Instance, budget float64) int64 {
	iterCost := float64(in.Sys.P.WorkTime(1))
	if iterCost <= 0 {
		return 0
	}
	n := int64(budget / iterCost)
	if n < 1 {
		n = 1
	}
	return n
}

func putInt64(b []byte, v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

func getInt64(b []byte) int64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return int64(u)
}
