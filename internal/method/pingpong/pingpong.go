package pingpong

import (
	"context"
	"fmt"
	"time"

	"comb/internal/mpi"
	"comb/internal/obs"
	"comb/internal/platform"
	"comb/internal/sim"
)

// Result is one ping-pong measurement.
type Result struct {
	System  string
	MsgSize int
	Reps    int
	// Latency is the half-round-trip time.
	Latency time.Duration
	// BandwidthMBs is the one-way data rate implied by the round trips.
	BandwidthMBs float64
}

// String gives a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("pingpong %s size=%dB: latency %v, %.2f MB/s",
		r.System, r.MsgSize, r.Latency, r.BandwidthMBs)
}

// measure runs reps round trips of size-byte messages on an
// already-built platform instance.
func measure(ctx context.Context, in *platform.Instance, system string, size, reps int, spans *obs.Collector) (*Result, error) {
	var start, end sim.Time
	err := in.RunContext(ctx, func(p *sim.Proc, c *mpi.Comm) {
		// Consecutive ranks pair up (0-1, 2-3, ...); on the classic
		// two-node system that is exactly the old rank-0/rank-1 exchange.
		// Every pair ping-pongs simultaneously over the shared switch;
		// the reported timing is pair 0's, and only global rank 0 writes
		// it (read after the run, so no lock is needed).
		role := c.Rank() % 2
		peer := c.Rank() - role + (1 - role)
		// The messages are length-only: nothing reads their contents.
		send := func() { c.Wait(p, c.IsendLen(p, peer, 1, size)) }
		recv := func() { c.Wait(p, c.IrecvLen(p, peer, 1, size)) }
		c.Barrier(p)
		t0 := p.Now()
		for i := 0; i < reps; i++ {
			if role == 0 {
				send()
				recv()
			} else {
				recv()
				send()
			}
		}
		if c.Rank() == 0 {
			start, end = t0, p.Now()
		}
	})
	if err != nil {
		return nil, err
	}
	if spans != nil {
		spans.Span(obs.CatPhase, "exchange", 0, time.Duration(start), time.Duration(end))
	}
	elapsed := end - start
	rtts := time.Duration(elapsed) / time.Duration(reps)
	res := &Result{
		System:  system,
		MsgSize: size,
		Reps:    reps,
		Latency: rtts / 2,
	}
	if elapsed > 0 {
		// One message crosses the wire per half round trip.
		res.BandwidthMBs = float64(size) / (rtts / 2).Seconds() / 1e6
	}
	return res, nil
}
