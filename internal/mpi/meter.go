package mpi

import (
	"strconv"
	"time"

	"comb/internal/obs"
)

// Meter aggregates message accounting across every communicator it is
// attached to.  The invariant checker attaches one meter to all ranks of
// a system and asserts conservation laws over the totals after the run
// (completed sends == completed receives, posted sends all complete, and
// byte counts agree end to end).
//
// The simulator is single-threaded per environment, so plain counters
// suffice.
type Meter struct {
	PostedSends int64 // Isend calls (incl. library-internal sends)
	PostedRecvs int64 // Irecv calls (incl. library-internal receives)
	DoneSends   int64 // send requests completed
	DoneRecvs   int64 // receive requests completed
	SentBytes   int64 // payload bytes of completed sends
	RecvBytes   int64 // payload bytes of completed receives

	// Spans, when non-nil, receives one CatMPI span per completed
	// request: post time to completion time on the owning rank's
	// timeline, with the payload size as the "bytes" argument.
	Spans *obs.Collector
}

// SetMeter attaches m to the communicator.  All subsequent posts and
// completions on this rank are counted.  Pass nil to detach.
func (c *Comm) SetMeter(m *Meter) { c.meter = m }

func (m *Meter) posted(kind Kind) {
	if kind == KindSend {
		m.PostedSends++
	} else {
		m.PostedRecvs++
	}
}

func (m *Meter) completed(r *Request) {
	if r.kind == KindSend {
		m.DoneSends++
		m.SentBytes += int64(r.n)
	} else {
		m.DoneRecvs++
		m.RecvBytes += int64(r.status.Count)
	}
	if m.Spans != nil && r.comm != nil {
		m.Spans.Span(obs.CatMPI, r.kind.String(), r.comm.rank,
			time.Duration(r.postedAt), time.Duration(r.comm.env.Now()),
			"bytes", strconv.Itoa(r.Bytes()))
	}
}
