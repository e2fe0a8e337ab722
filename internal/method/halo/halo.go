// Package halo registers the "halo" method: a 2D stencil halo exchange
// over the N-rank world, contrasting progress disciplines ("MPI
// Progress For All" workload shape).
//
// Ranks form a Px×Py torus (Px the largest divisor of the rank count no
// greater than its square root, so 8 ranks make a 2×4 grid and a prime
// count degenerates to a ring).  Each iteration posts the four halo
// receives and sends, computes, and completes the exchange either by
// blocking in Waitall ("wait": the post-work-wait discipline, progress
// only at the ends) or by polling Test between work slices ("poll":
// host cycles donated to the library throughout the compute phase).
// The gap between the two disciplines on one transport is the method's
// point — it is the stencil-shaped version of the paper's availability
// question.
package halo

import (
	"context"
	"fmt"
	"time"

	"comb/internal/mpi"
	"comb/internal/obs"
	"comb/internal/platform"
	"comb/internal/sim"
)

// pollSlices is how many slices the compute phase is cut into under the
// "poll" discipline, with a Test round between consecutive slices.
const pollSlices = 8

// Result is one halo-exchange measurement.
type Result struct {
	System  string
	Nodes   int
	Px, Py  int
	MsgSize int
	Iters   int
	// WorkIters is the per-iteration compute in simulated loop
	// iterations; Progress is the discipline ("wait" or "poll").
	WorkIters int64
	Progress  string
	// Elapsed is rank 0's time across all iterations; AvgWait its mean
	// per-iteration Waitall time.
	Elapsed time.Duration
	AvgWait time.Duration
	// Availability is the fraction of Elapsed spent in the application's
	// own compute (the COMB metric, stencil-shaped).
	Availability float64
	// BandwidthMBs is rank 0's halo ingest rate over the whole run.
	BandwidthMBs float64
}

// String gives a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("halo %s %dx%d size=%dB %s: %v elapsed, wait %v/iter, avail %.3f, %.2f MB/s",
		r.System, r.Px, r.Py, r.MsgSize, r.Progress, r.Elapsed, r.AvgWait, r.Availability, r.BandwidthMBs)
}

// gridShape picks the torus dimensions: the largest divisor of n not
// exceeding √n, so the grid is as square as n allows.
func gridShape(n int) (px, py int) {
	px = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			px = d
		}
	}
	return px, n / px
}

// Torus directions; opposite pairs differ in the low bit, and the
// direction index doubles as the message tag (a 2-extent dimension
// makes both neighbours the same rank — the tag disambiguates).
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
)

func opposite(d int) int { return d ^ 1 }

// neighbors returns rank's torus neighbour in each direction, skipping
// dimensions of extent 1 (their only "neighbour" is the rank itself).
func neighbors(rank, px, py int) map[int]int {
	x, y := rank%px, rank/px
	nb := make(map[int]int, 4)
	if px > 1 {
		nb[dirXPlus] = y*px + (x+1)%px
		nb[dirXMinus] = y*px + (x-1+px)%px
	}
	if py > 1 {
		nb[dirYPlus] = ((y+1)%py)*px + x
		nb[dirYMinus] = ((y-1+py)%py)*px + x
	}
	return nb
}

// measure runs the halo exchange on an already-built platform instance.
func measure(ctx context.Context, in *platform.Instance, system string, p Params, spans *obs.Collector) (*Result, error) {
	nodes := len(in.Comms)
	px, py := gridShape(nodes)

	// Rank 0 is the only writer of the shared timing state; it is read
	// after the run (race-safe on the parallel engine).
	var (
		start, end sim.Time
		waitTotal  sim.Time
		recvBytes  int64
	)

	err := in.RunContext(ctx, func(pr *sim.Proc, c *mpi.Comm) {
		rank := c.Rank()
		node := in.Sys.Nodes[rank]
		nb := neighbors(rank, px, py)
		// Fixed direction order keeps the request lists deterministic.
		dirs := make([]int, 0, 4)
		for _, d := range []int{dirXPlus, dirXMinus, dirYPlus, dirYMinus} {
			if _, ok := nb[d]; ok {
				dirs = append(dirs, d)
			}
		}
		c.Barrier(pr)
		t0 := pr.Now()
		var myWait sim.Time
		for it := 0; it < p.Iters; it++ {
			reqs := make([]*mpi.Request, 0, 2*len(dirs))
			// Receives first (pre-posted halos), then the sends: a halo
			// sent in direction d arrives tagged d and matches the
			// receiver's opposite-direction slot.  Halos are length-only:
			// nothing reads their contents.
			for _, d := range dirs {
				reqs = append(reqs, c.IrecvLen(pr, nb[d], opposite(d), p.MsgSize))
			}
			for _, d := range dirs {
				reqs = append(reqs, c.IsendLen(pr, nb[d], d, p.MsgSize))
			}
			if p.WorkIters > 0 {
				switch p.Progress {
				case ProgressPoll:
					slice := p.WorkIters / pollSlices
					done := int64(0)
					for s := 0; s < pollSlices; s++ {
						w := slice
						if s == pollSlices-1 {
							w = p.WorkIters - done
						}
						if w > 0 {
							node.Work(pr, w)
							done += w
						}
						for _, r := range reqs {
							c.Test(pr, r)
						}
					}
				default: // ProgressWait
					node.Work(pr, p.WorkIters)
				}
			}
			w0 := pr.Now()
			c.Waitall(pr, reqs)
			myWait += pr.Now() - w0
		}
		if rank == 0 {
			start, end = t0, pr.Now()
			waitTotal = myWait
			recvBytes = int64(p.Iters) * int64(len(dirs)) * int64(p.MsgSize)
		}
	})
	if err != nil {
		return nil, err
	}
	if spans != nil {
		spans.Span(obs.CatPhase, "exchange", 0, time.Duration(start), time.Duration(end))
	}

	elapsed := end - start
	res := &Result{
		System:    system,
		Nodes:     nodes,
		Px:        px,
		Py:        py,
		MsgSize:   p.MsgSize,
		Iters:     p.Iters,
		WorkIters: p.WorkIters,
		Progress:  p.Progress,
		Elapsed:   time.Duration(elapsed),
		AvgWait:   time.Duration(waitTotal / sim.Time(p.Iters)),
	}
	if elapsed > 0 {
		workTotal := in.Sys.P.WorkTime(p.WorkIters) * sim.Time(p.Iters)
		res.Availability = float64(workTotal) / float64(elapsed)
		res.BandwidthMBs = float64(recvBytes) / time.Duration(elapsed).Seconds() / 1e6
	}
	return res, nil
}
