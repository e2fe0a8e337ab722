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

// Offload implements Transport.
func (t *Ideal) Offload() bool { return true }

// Build implements Transport.
func (t *Ideal) Build(sys *cluster.System) []mpi.Endpoint {
	eps := make([]mpi.Endpoint, len(sys.Nodes))
	for i, node := range sys.Nodes {
		ep := &idealEndpoint{
			node: node,
			fab:  sys.Fabric,
			hub:  mpi.NewActivityHub(node.Env),
			acc:  make(map[idealMsgID]*idealAccum),
		}
		ep.sendDoneFn = ep.sendDone
		sys.Fabric.Attach(node.ID, ep.onPacket)
		eps[i] = ep
	}
	return eps
}

type idealMsgID struct {
	src int
	seq int64
}

type idealFrag struct {
	id   idealMsgID
	src  int
	tag  int
	size int
	off  int
	n    int
	data []byte
	last bool
}

type idealAccum struct {
	size int
	got  int
	data []byte // assembly buffer; nil when length-only
	src  int
	tag  int
}

type idealEndpoint struct {
	node *cluster.Node
	fab  *cluster.Fabric
	hub  *mpi.ActivityHub
	m    mpi.Matcher
	seq  int64
	acc  map[idealMsgID]*idealAccum

	sendDoneFn func(any) // bound once: completes a finished send
}

func (ep *idealEndpoint) rank() int { return ep.node.ID }

// Activity implements mpi.Endpoint.
func (ep *idealEndpoint) Activity() *sim.Event { return ep.hub.Activity() }

// Offload implements mpi.Endpoint.
func (ep *idealEndpoint) Offload() bool { return true }

// MatchState implements mpi.MatchStater, backing MPI_Probe.
func (ep *idealEndpoint) MatchState() *mpi.Matcher { return &ep.m }

// Progress implements mpi.Endpoint: nothing to do.
func (ep *idealEndpoint) Progress(p *sim.Proc) {}

// Isend implements mpi.Endpoint.
func (ep *idealEndpoint) Isend(p *sim.Proc, r *mpi.Request) {
	id := idealMsgID{src: ep.rank(), seq: ep.seq}
	ep.seq++
	size, data := r.Len(), append([]byte(nil), r.Data()...)
	off := 0
	sentAt := ep.fab.SendMessage(ep.rank(), r.Peer(), size, ep.node.P.PacketHeader,
		func(i, n int, last bool) any {
			f := &idealFrag{id: id, src: ep.rank(), tag: r.Tag(), size: size,
				off: off, n: n, last: last}
			if data != nil {
				f.data = data[off : off+n]
			}
			off += n
			return f
		})
	d := sentAt - ep.node.Env.Now()
	if d < 0 {
		d = 0
	}
	ep.node.Env.ScheduleCall(d, ep.sendDoneFn, r)
}

// sendDone completes a send whose final frame has left the host.
func (ep *idealEndpoint) sendDone(a any) {
	r := a.(*mpi.Request)
	r.Complete(ep.rank(), r.Tag(), r.Len())
	ep.hub.Wake()
}

// Irecv implements mpi.Endpoint.
func (ep *idealEndpoint) Irecv(p *sim.Proc, r *mpi.Request) {
	if in := ep.m.PostRecv(r); in != nil {
		ep.deliver(r, in)
	}
}

// deliver lands a complete message in the matched receive.
func (ep *idealEndpoint) deliver(r *mpi.Request, in *mpi.Inbound) {
	copy(r.Buf(), in.Data)
	r.Complete(in.Src, in.Tag, min(in.Size, r.Len()))
}

func (ep *idealEndpoint) onPacket(pkt *cluster.Packet) {
	f := pkt.Payload.(*idealFrag)
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
		ep.deliver(r, in)
	}
	// Wake blocked waits and probes: either a request completed or a new
	// envelope is visible on the unexpected queue.
	ep.hub.Wake()
}
