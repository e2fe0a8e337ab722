package mpi

import (
	"fmt"

	"comb/internal/sim"
)

// Wildcard values for receive matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Kind distinguishes send from receive requests.
type Kind int

// Request kinds.
const (
	KindSend Kind = iota
	KindRecv
)

// String returns "send" or "recv".
func (k Kind) String() string {
	if k == KindSend {
		return "send"
	}
	return "recv"
}

// Status describes a completed receive, like MPI_Status.
type Status struct {
	Source int // actual source rank
	Tag    int // actual tag
	Count  int // bytes received
}

// Request is a non-blocking communication request (MPI_Request).  It is
// created by Comm.Isend / Comm.Irecv and completed by the transport.
type Request struct {
	kind Kind
	comm *Comm
	peer int // destination rank (send) or source filter (recv)
	tag  int

	n    int    // payload length: a send's size, a receive's capacity
	data []byte // send payload (captured at post time); nil when length-only
	buf  []byte // receive buffer; nil when length-only

	done     bool
	status   Status
	ev       *sim.Event
	postedAt sim.Time

	priv any // transport-private state
}

// Kind returns whether this is a send or a receive request.
func (r *Request) Kind() Kind { return r.kind }

// Peer returns the destination rank (send) or source filter (recv; may be
// AnySource).
func (r *Request) Peer() int { return r.peer }

// Tag returns the message tag (may be AnyTag for receives).
func (r *Request) Tag() int { return r.tag }

// Len returns the request's payload length: the message size of a send,
// the capacity of a receive.  Transports take every size and every cost
// from it, never from Data or Buf.
func (r *Request) Len() int { return r.n }

// Data returns the payload of a send request, or nil for a length-only
// send (Comm.IsendLen).
func (r *Request) Data() []byte { return r.data }

// Buf returns the receive buffer of a receive request, or nil for a
// length-only receive (Comm.IrecvLen).
func (r *Request) Buf() []byte { return r.buf }

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done }

// Bytes returns the number of payload bytes this request moves: the
// payload length for sends, the received count for completed receives.
func (r *Request) Bytes() int {
	if r.kind == KindSend {
		return r.n
	}
	return r.status.Count
}

// Status returns the completion status.  It is meaningful only once Done
// reports true.
func (r *Request) Status() Status { return r.status }

// PostedAt returns the virtual time the request was posted.
func (r *Request) PostedAt() sim.Time { return r.postedAt }

// DoneEvent returns the event fired at completion.  Transports and
// offload-capable waits subscribe to it.  The event is materialized on
// first use — most requests are completed and discarded without anyone
// subscribing, so the common path never allocates one.
func (r *Request) DoneEvent() *sim.Event {
	if r.ev == nil {
		r.ev = r.comm.env.NewEvent()
		if r.done {
			r.ev.Fire(r)
		}
	}
	return r.ev
}

// Priv returns the transport-private state attached to the request.
func (r *Request) Priv() any { return r.priv }

// SetPriv attaches transport-private state to the request.
func (r *Request) SetPriv(v any) { r.priv = v }

// Complete marks the request finished and fires its completion event.
// Transports call it exactly once; a second call panics.  For receives,
// src/tag/count record the matched envelope; count is min(message size,
// Len) whether or not either end carries bytes.
func (r *Request) Complete(src, tag, count int) {
	if r.done {
		panic(fmt.Sprintf("mpi: %v request completed twice", r.kind))
	}
	r.done = true
	r.status = Status{Source: src, Tag: tag, Count: count}
	if r.comm != nil && r.comm.meter != nil {
		r.comm.meter.completed(r)
	}
	if r.ev != nil {
		r.ev.Fire(r)
	}
}

// matches reports whether an incoming envelope (src, tag) satisfies this
// posted receive, honouring wildcards.
func (r *Request) matches(src, tag int) bool {
	if r.kind != KindRecv {
		return false
	}
	if r.peer != AnySource && r.peer != src {
		return false
	}
	if r.tag != AnyTag && r.tag != tag {
		return false
	}
	return true
}
