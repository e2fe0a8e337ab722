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
	// Activity returns the endpoint's condition: it broadcasts at each
	// externally-generated state change (packet arrival, DMA completion,
	// offloaded request completion).  Blocking waits read its generation
	// before progressing and park on it.
	Activity() *sim.Cond
	// MatchState exposes the endpoint's matching engine, which services
	// MPI_Probe/MPI_Iprobe.  (For kernel-matched transports this models
	// the query syscall's view.)
	MatchState() *Matcher
}
