package netperf

import (
	"context"
	"fmt"
	"time"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/obs"
	"comb/internal/platform"
	"comb/internal/sim"
)

// WaitMode is how the communication process waits for completions.
type WaitMode int

const (
	// SelectWait parks the process until completion (netperf's
	// assumption: the waiter yields the CPU).
	SelectWait WaitMode = iota
	// BusyWait spins on MPI_Test, consuming user CPU in scheduler quanta
	// (how OS-bypass MPI implementations actually wait).
	BusyWait
)

// String names the mode.
func (m WaitMode) String() string {
	if m == BusyWait {
		return "busy-wait"
	}
	return "select"
}

// Quantum is the scheduler timeslice used to interleave the two processes
// on one CPU (Linux 2.2-era 10 ms jiffies-based round robin).
const Quantum = 10 * sim.Millisecond

// Result is one netperf-style measurement.
type Result struct {
	System string
	Mode   WaitMode
	// MsgSize and Streams describe the driven communication.
	MsgSize int
	// DryTime / Elapsed are the delay loop's durations without / with the
	// communication process running.
	DryTime, Elapsed time.Duration
	// Availability is what netperf reports: DryTime / Elapsed.
	Availability float64
}

// String gives a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("netperf %s (%s): reports availability %.3f",
		r.System, r.Mode, r.Availability)
}

// measure runs the delay-loop experiment on an already-built platform
// instance: a delay loop of loopIters iterations shares node 0 with a
// process streaming msgSize-byte messages to node 1 (echoed back),
// waiting per mode.  Cancellation is checked at phase granularity: a
// deterministic simulation phase always finishes.
func measure(ctx context.Context, in *platform.Instance, system string, mode WaitMode, msgSize int, loopIters int64, spans *obs.Collector) (*Result, error) {
	node0 := in.Sys.Nodes[0]
	env := in.Sys.Env

	// slicedWork consumes user CPU in scheduler quanta so two user
	// processes on the node round-robin rather than running to completion.
	slicedWork := func(p *sim.Proc, demand sim.Time) {
		for demand > 0 {
			q := Quantum
			if q > demand {
				q = demand
			}
			node0.CPU.Use(p, q, cluster.User)
			demand -= q
		}
	}

	demand := node0.P.WorkTime(loopIters)

	// Dry run: the delay loop alone.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var dry sim.Time
	var dryStart sim.Time
	dryProc := env.Spawn("netperf-dry", func(p *sim.Proc) {
		dryStart = p.Now()
		slicedWork(p, demand)
		dry = p.Now() - dryStart
	})
	env.Run()
	if !dryProc.Done() {
		return nil, fmt.Errorf("netperf: dry run did not finish")
	}
	if spans != nil {
		spans.Span(obs.CatPhase, "dry", 0, time.Duration(dryStart), time.Duration(dryStart+dry))
	}

	// Measured run: delay loop and communication driver share node 0.
	// The loop starts only once the driver's window is in flight, as
	// netperf measures against an already-running stream.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stop := false
	var elapsed sim.Time
	var loopStart sim.Time
	commDone := env.NewEvent()
	streamReady := env.NewEvent()

	loopProc := env.Spawn("netperf-loop", func(p *sim.Proc) {
		p.Await(streamReady)
		loopStart = p.Now()
		slicedWork(p, demand)
		elapsed = p.Now() - loopStart
		stop = true
	})
	env.Spawn("netperf-comm", func(p *sim.Proc) {
		// Netperf streams continuously; keep a window of exchanges in
		// flight so the node sees sustained communication load.  The
		// stream is length-only: nothing reads its contents.
		const window = 8
		c := in.Comms[0]
		recvs := make([]*mpi.Request, window)
		for i := range recvs {
			recvs[i] = c.IrecvLen(p, 1, 1, msgSize)
			c.IsendLen(p, 1, 1, msgSize)
		}
		streamReady.Fire(nil)
		for !stop {
			switch mode {
			case SelectWait:
				// Netperf's assumption: relinquish the CPU while waiting.
				i := c.Waitany(p, recvs)
				recvs[i] = c.IrecvLen(p, 1, 1, msgSize)
				c.IsendLen(p, 1, 1, msgSize)
			case BusyWait:
				// How OS-bypass MPI actually waits: spin inside the
				// library, losing the CPU only when the scheduler preempts
				// it.  On a one-CPU node the spinner soaks up every other
				// quantum — which is precisely the utilization netperf
				// then misattributes to communication.  (The stream itself
				// starves meanwhile, another face of the same pathology.)
				node0.CPU.Use(p, Quantum, cluster.User)
			}
		}
		// Tell the echo rank to stop.
		c.Send(p, 1, 2, nil)
		commDone.Fire(nil)
	})
	env.Spawn("netperf-echo", func(p *sim.Proc) {
		c := in.Comms[1]
		finBuf := make([]byte, 0)
		fin := c.Irecv(p, 0, 2, finBuf)
		pending := make([]*mpi.Request, 0, 3)
		for {
			rr := c.IrecvLen(p, 0, 1, msgSize)
			sr := c.IsendLen(p, 0, 1, msgSize)
			for !(rr.Done() && sr.Done()) {
				// Wait only on still-incomplete requests (plus the stop
				// signal) so Waitany always makes progress.
				pending = pending[:0]
				pending = append(pending, fin)
				if !rr.Done() {
					pending = append(pending, rr)
				}
				if !sr.Done() {
					pending = append(pending, sr)
				}
				if i := c.Waitany(p, pending); pending[i] == fin {
					return
				}
			}
		}
	})
	env.Run()
	if !loopProc.Done() {
		return nil, fmt.Errorf("netperf: delay loop did not finish")
	}
	if spans != nil {
		spans.Span(obs.CatPhase, "loop", 0, time.Duration(loopStart), time.Duration(loopStart+elapsed))
	}

	return &Result{
		System:       system,
		Mode:         mode,
		MsgSize:      msgSize,
		DryTime:      time.Duration(dry),
		Elapsed:      time.Duration(elapsed),
		Availability: float64(dry) / float64(elapsed),
	}, nil
}
