package transport

import (
	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/sim"
)

// Ideal is a reference transport with zero host cost and full application
// offload: payloads move at wire speed by NIC DMA, matching happens "in
// hardware" for free, and requests complete with no library involvement.
// No 2002-era system achieved this; it serves as an upper bound for
// ablations and as a semantics oracle in tests.
type Ideal struct{}

// NewIdeal returns the ideal transport.
func NewIdeal() *Ideal { return &Ideal{} }

// Name implements Transport.
func (t *Ideal) Name() string { return "ideal" }

// Build implements Transport.
func (t *Ideal) Build(sys *cluster.System) []mpi.Endpoint {
	eps := make([]mpi.Endpoint, len(sys.Nodes))
	for i, node := range sys.Nodes {
		ep := &idealEndpoint{
			endpoint: newEndpoint(sys, node),
			acc:      make(map[msgID]*idealAccum),
		}
		ep.sendDoneFn = ep.sendDone
		sys.Fabric.Attach(node.ID, ep.onPacket)
		eps[i] = ep
	}
	return eps
}

type idealAccum struct {
	size int
	got  int
	data []byte // assembly buffer; nil when length-only
	src  int
	tag  int
}

type idealEndpoint struct {
	endpoint
	acc map[msgID]*idealAccum

	sendDoneFn func(any) // bound once: completes a finished send
}

// Progress implements mpi.Endpoint: nothing to do.
func (ep *idealEndpoint) Progress(p *sim.Proc) {}

// Isend implements mpi.Endpoint.
func (ep *idealEndpoint) Isend(p *sim.Proc, r *mpi.Request) {
	id, size, data := ep.nextID(), r.Len(), append([]byte(nil), r.Data()...)
	off := 0
	sentAt := ep.fab.SendMessage(ep.rank(), r.Peer(), size, ep.node.P.PacketHeader,
		func(i, n int, last bool) any {
			f := &frag{}
			f.set(id, r.Tag(), size, off, n, data, last)
			off += n
			return f
		})
	ep.callAt(sentAt, ep.sendDoneFn, r)
}

// Irecv implements mpi.Endpoint.
func (ep *idealEndpoint) Irecv(p *sim.Proc, r *mpi.Request) {
	if in := ep.m.PostRecv(r); in != nil {
		land(r, in)
	}
}

func (ep *idealEndpoint) onPacket(pkt *cluster.Packet) {
	f := pkt.Payload.(*frag)
	a := ep.acc[f.id]
	if a == nil {
		a = &idealAccum{size: f.size, src: f.src, tag: f.tag}
		if f.data != nil {
			a.data = make([]byte, f.size)
		}
		ep.acc[f.id] = a
	}
	if a.data != nil {
		copy(a.data[f.off:], f.data)
	}
	a.got += f.n
	if !f.last {
		return
	}
	delete(ep.acc, f.id)
	in := &mpi.Inbound{Src: a.src, Tag: a.tag, Size: a.size, Data: a.data}
	if r := ep.m.Arrive(in); r != nil {
		land(r, in)
	}
	// Wake blocked waits and probes: either a request completed or a new
	// envelope is visible on the unexpected queue.
	ep.act.Broadcast()
}
