package mpi

import "comb/internal/sim"

// Endpoint is the transport binding for one rank.  The Comm charges the
// fixed library-call overhead; endpoints charge everything else (protocol
// CPU costs, copies, wire time) themselves.
//
// All methods taking a *sim.Proc run in the application process context on
// that rank's node: CPU they consume is CPU the application loses.
type Endpoint interface {
	// Isend initiates the non-blocking send held by r.
	Isend(p *sim.Proc, r *Request)
	// Irecv posts the non-blocking receive held by r.
	Irecv(p *sim.Proc, r *Request)
	// Progress lets a library-driven endpoint advance outstanding
	// communication.  It is invoked from inside MPI calls only — never
	// spontaneously — which is how the "no application offload" systems
	// are modeled.  Offloaded endpoints may make it a no-op.
	Progress(p *sim.Proc)
	// Activity returns an event that fires at the endpoint's next
	// externally-generated state change (packet arrival, DMA completion,
	// offloaded request completion).  Blocking waits park on it.
	Activity() *sim.Event
	// MatchState exposes the endpoint's matching engine, which services
	// MPI_Probe/MPI_Iprobe.  (For kernel-matched transports this models
	// the query syscall's view.)
	MatchState() *Matcher
}

// ActivityHub is a re-armable broadcast used by endpoints to implement
// Activity/Wake.  Each Wake fires the current event (releasing every
// parked waiter) and the next Activity call arms a fresh one.
type ActivityHub struct {
	env *sim.Env
	cur *sim.Event
}

// NewActivityHub returns a hub bound to env.
func NewActivityHub(env *sim.Env) *ActivityHub { return &ActivityHub{env: env} }

// Activity returns the currently armed event, arming a new one if needed.
func (h *ActivityHub) Activity() *sim.Event {
	if h.cur == nil || h.cur.Fired() {
		h.cur = h.env.NewEvent()
	}
	return h.cur
}

// Wake fires the armed event, if any waiter could be parked on it.
func (h *ActivityHub) Wake() {
	if h.cur != nil && !h.cur.Fired() {
		h.cur.Fire(nil)
	}
}
