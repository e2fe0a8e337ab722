package transport

import (
	"bytes"
	"fmt"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/sim"
)

// GMConfig parameterizes the GM transport model.  Defaults approximate
// GM 1.4 + MPICH/GM 1.2..4 on the paper's hardware.
type GMConfig struct {
	// EagerThreshold is the message size (bytes) below which the eager
	// protocol is used.  The paper reports the GM switch near 16 KB.
	EagerThreshold int
	// EagerSendCost is the host CPU time of an eager non-blocking send
	// (the paper measures ~45 us per small message on their system).
	EagerSendCost sim.Time
	// RndvPostCost is the host CPU time to post a rendezvous send (~5 us).
	RndvPostCost sim.Time
	// RecvPostCost is the host CPU time to post a receive (~5 us).
	RecvPostCost sim.Time
	// PollCost is charged per progress poll of the NIC event queue.
	PollCost sim.Time
	// EventCost is charged per NIC event handled by the library.
	EventCost sim.Time
	// CtsCost is charged to emit a rendezvous clear-to-send.
	CtsCost sim.Time
	// CtrlSize is the wire size of RTS/CTS control packets.
	CtrlSize int
}

// DefaultGMConfig returns the calibrated GM parameters.
func DefaultGMConfig() GMConfig {
	return GMConfig{
		EagerThreshold: 16 << 10,
		EagerSendCost:  45 * sim.Microsecond,
		RndvPostCost:   5 * sim.Microsecond,
		RecvPostCost:   5 * sim.Microsecond,
		PollCost:       500 * sim.Nanosecond,
		EventCost:      2 * sim.Microsecond,
		CtsCost:        2 * sim.Microsecond,
		CtrlSize:       64,
	}
}

// GM is the OS-bypass, library-progressed transport (MPICH/GM model).
type GM struct {
	Config GMConfig
}

// NewGM returns a GM transport with default configuration.
func NewGM() *GM { return &GM{Config: DefaultGMConfig()} }

// Name implements Transport.
func (g *GM) Name() string { return "gm" }

// Offload implements Transport: GM does not provide application offload.
func (g *GM) Offload() bool { return false }

// Build implements Transport, attaching one endpoint per node.
func (g *GM) Build(sys *cluster.System) []mpi.Endpoint {
	eps := make([]mpi.Endpoint, len(sys.Nodes))
	for i, node := range sys.Nodes {
		ep := &gmEndpoint{
			cfg:      g.Config,
			node:     node,
			fab:      sys.Fabric,
			hub:      mpi.NewActivityHub(node.Env),
			eagerAcc: make(map[gmMsgID]*gmAccum),
			dataAcc:  make(map[gmMsgID]*gmAccum),
			sendReqs: make(map[gmMsgID]*mpi.Request),
		}
		ep.sendDoneFn = ep.sendDone
		sys.Fabric.Attach(node.ID, ep.onPacket)
		eps[i] = ep
	}
	return eps
}

// gmMsgID uniquely identifies a message across the system.
type gmMsgID struct {
	src int
	seq int64
}

// gmFragKind is the wire-level packet type.
type gmFragKind int

const (
	gmEagerFrag gmFragKind = iota
	gmRTS
	gmCTS
	gmDataFrag
)

// gmFrag is the payload of one GM wire packet.  data is nil for a
// length-only message.
type gmFrag struct {
	kind gmFragKind
	id   gmMsgID
	src  int
	tag  int
	size int // total message payload size
	off  int
	n    int
	data []byte
	last bool
}

// gmEvtKind is a NIC event-queue entry type, visible only to the library.
type gmEvtKind int

const (
	gmEvtMsg      gmEvtKind = iota // complete eager message arrived
	gmEvtRTS                       // rendezvous announcement arrived
	gmEvtCTS                       // clear-to-send arrived
	gmEvtSendDone                  // NIC finished DMAing a send from host
	gmEvtDataDone                  // rendezvous data fully landed in user buffer
)

// gmEvent is one NIC event-queue entry.  A data-done event carries the
// landed message's envelope in src, tag and size.
type gmEvent struct {
	kind gmEvtKind
	in   *mpi.Inbound
	req  *mpi.Request
	id   gmMsgID
	src  int
	tag  int
	size int
}

// gmAccum assembles a fragmented message on the receive side.  A
// rendezvous message's record is taken when its RTS arrives and rides in
// the announcement's Inbound.Rndv until the CTS registers it for data.
type gmAccum struct {
	id   gmMsgID
	size int
	got  int
	data []byte       // eager assembly buffer (GM receive ring); nil when length-only
	req  *mpi.Request // destination request for rendezvous data
	src  int
	tag  int
}

// gmEndpoint is the per-rank GM library + NIC state.
//
// Packet arrival (onPacket) consumes no host CPU: the LANai writes into
// registered memory and appends tokens to the event queue.  All host-side
// protocol work happens in Progress, i.e. only inside MPI calls.
type gmEndpoint struct {
	cfg  GMConfig
	node *cluster.Node
	fab  *cluster.Fabric
	hub  *mpi.ActivityHub
	m    mpi.Matcher
	seq  int64

	nicQ     []gmEvent
	nicHead  int // next unread nicQ entry; the queue rewinds when drained
	eagerAcc map[gmMsgID]*gmAccum
	dataAcc  map[gmMsgID]*gmAccum
	sendReqs map[gmMsgID]*mpi.Request

	fragFree   []*gmFrag
	accFree    []*gmAccum
	sendDoneFn func(any) // bound once: queues the send-done NIC event
}

// pooling reports whether object recycling is safe (no fault injector).
func (ep *gmEndpoint) pooling() bool { return !ep.fab.Injected() }

func (ep *gmEndpoint) getFrag() *gmFrag {
	if n := len(ep.fragFree); n > 0 && ep.pooling() {
		f := ep.fragFree[n-1]
		ep.fragFree = ep.fragFree[:n-1]
		return f
	}
	return &gmFrag{}
}

func (ep *gmEndpoint) getAccum() *gmAccum {
	if n := len(ep.accFree); n > 0 && ep.pooling() {
		acc := ep.accFree[n-1]
		ep.accFree = ep.accFree[:n-1]
		return acc
	}
	return &gmAccum{}
}

func (ep *gmEndpoint) putAccum(acc *gmAccum) {
	if ep.pooling() {
		*acc = gmAccum{}
		ep.accFree = append(ep.accFree, acc)
	}
}

func (ep *gmEndpoint) rank() int { return ep.node.ID }

// Activity implements mpi.Endpoint.
func (ep *gmEndpoint) Activity() *sim.Event { return ep.hub.Activity() }

// MatchState implements mpi.MatchStater, backing MPI_Probe.
func (ep *gmEndpoint) MatchState() *mpi.Matcher { return &ep.m }

// Offload implements mpi.Endpoint: false — the defining GM property.
func (ep *gmEndpoint) Offload() bool { return false }

// pushEvent appends a NIC event token and wakes blocked MPI waits.
func (ep *gmEndpoint) pushEvent(ev gmEvent) {
	ep.nicQ = append(ep.nicQ, ev)
	ep.hub.Wake()
}

// Isend implements mpi.Endpoint.
func (ep *gmEndpoint) Isend(p *sim.Proc, r *mpi.Request) {
	n := r.Len()
	id := gmMsgID{src: ep.rank(), seq: ep.seq}
	ep.seq++
	if n < ep.cfg.EagerThreshold {
		// Eager: the library copies the payload into GM send tokens; this
		// is where GM's measured ~45 us per small message goes.
		ep.node.CPU.Use(p, ep.cfg.EagerSendCost, cluster.User)
		sentAt := ep.sendPayload(r, id, gmEagerFrag)
		ep.scheduleAtCall(sentAt, ep.sendDoneFn, r)
		return
	}
	// Rendezvous: announce with an RTS; data moves only after the peer's
	// library answers with a CTS — which requires the peer to be inside an
	// MPI call.
	ep.node.CPU.Use(p, ep.cfg.RndvPostCost, cluster.User)
	ep.sendReqs[id] = r
	ep.sendCtrl(r.Peer(), gmRTS, id, r.Tag(), n)
}

// sendDone queues the NIC's send-completion token for a request.
func (ep *gmEndpoint) sendDone(a any) {
	ep.pushEvent(gmEvent{kind: gmEvtSendDone, req: a.(*mpi.Request)})
}

// sendCtrl emits one urgent control packet (RTS/CTS) from pooled objects.
func (ep *gmEndpoint) sendCtrl(to int, kind gmFragKind, id gmMsgID, tag, size int) {
	f := ep.getFrag()
	f.kind, f.id, f.src, f.tag, f.size = kind, id, ep.rank(), tag, size
	pkt := ep.fab.GetPacketFrom(ep.node.ID)
	pkt.From, pkt.To, pkt.Size, pkt.Urgent = ep.rank(), to, ep.cfg.CtrlSize, true
	pkt.Payload = f
	ep.fab.Send(pkt)
}

// Irecv implements mpi.Endpoint.
func (ep *gmEndpoint) Irecv(p *sim.Proc, r *mpi.Request) {
	ep.node.CPU.Use(p, ep.cfg.RecvPostCost, cluster.User)
	in := ep.m.PostRecv(r)
	if in == nil {
		return
	}
	if in.Rndv == nil {
		// The message arrived before the receive was posted, so it sits in
		// a GM unexpected buffer; matching it costs a host copy.
		ep.node.Memcpy(p, in.Size, cluster.User)
		ep.deliverEager(r, in)
		return
	}
	ep.sendCTS(p, r, in)
}

// Progress implements mpi.Endpoint: drain the NIC event queue.  This is
// the only place the GM model advances protocol state, so communication
// stalls whenever the application stays out of the MPI library.
func (ep *gmEndpoint) Progress(p *sim.Proc) {
	ep.node.CPU.Use(p, ep.cfg.PollCost, cluster.User)
	for ep.nicHead < len(ep.nicQ) {
		// Take the entry before the CPU charge below can park p: another
		// process of this rank may drain the queue meanwhile.
		ev := ep.nicQ[ep.nicHead]
		ep.nicQ[ep.nicHead] = gmEvent{}
		ep.nicHead++
		ep.node.CPU.Use(p, ep.cfg.EventCost, cluster.User)
		switch ev.kind {
		case gmEvtMsg:
			if r := ep.m.Arrive(ev.in); r != nil {
				ep.deliverEager(r, ev.in)
			}
		case gmEvtRTS:
			if r := ep.m.Arrive(ev.in); r != nil {
				ep.sendCTS(p, r, ev.in)
			}
		case gmEvtCTS:
			r, ok := ep.sendReqs[ev.id]
			if !ok {
				panic(fmt.Sprintf("transport: gm CTS for unknown send %v", ev.id))
			}
			delete(ep.sendReqs, ev.id)
			sentAt := ep.sendPayload(r, ev.id, gmDataFrag)
			ep.scheduleAtCall(sentAt, ep.sendDoneFn, r)
		case gmEvtSendDone:
			ev.req.Complete(ep.rank(), ev.req.Tag(), ev.req.Len())
		case gmEvtDataDone:
			ev.req.Complete(ev.src, ev.tag, min(ev.size, ev.req.Len()))
		}
	}
	ep.nicQ, ep.nicHead = ep.nicQ[:0], 0
}

// deliverEager lands a complete eager message in the posted receive.
func (ep *gmEndpoint) deliverEager(r *mpi.Request, in *mpi.Inbound) {
	copy(r.Buf(), in.Data)
	r.Complete(in.Src, in.Tag, min(in.Size, r.Len()))
}

// sendCTS registers the receive buffer for incoming rendezvous data and
// answers the RTS.
func (ep *gmEndpoint) sendCTS(p *sim.Proc, r *mpi.Request, in *mpi.Inbound) {
	acc := in.Rndv.(*gmAccum)
	acc.req = r
	ep.dataAcc[acc.id] = acc
	ep.node.CPU.Use(p, ep.cfg.CtsCost, cluster.User)
	ep.sendCtrl(in.Src, gmCTS, acc.id, 0, 0)
}

// sendPayload fragments r's message onto the wire, copying its bytes, if
// it has any, into send tokens, and returns when the final fragment has
// left the host (NIC DMA complete).
func (ep *gmEndpoint) sendPayload(r *mpi.Request, id gmMsgID, kind gmFragKind) sim.Time {
	size, data := r.Len(), bytes.Clone(r.Data())
	off := 0
	return ep.fab.SendMessage(ep.rank(), r.Peer(), size, ep.node.P.PacketHeader,
		func(i, n int, last bool) any {
			f := ep.getFrag()
			f.kind, f.id, f.src, f.tag = kind, id, ep.rank(), r.Tag()
			f.size, f.off, f.n, f.last = size, off, n, last
			if data != nil {
				f.data = data[off : off+n]
			}
			off += n
			return f
		})
}

// scheduleAtCall runs fn(arg) at absolute virtual time at (>= now).
func (ep *gmEndpoint) scheduleAtCall(at sim.Time, fn func(any), arg any) {
	d := at - ep.node.Env.Now()
	if d < 0 {
		d = 0
	}
	ep.node.Env.ScheduleCall(d, fn, arg)
}

// onPacket is the NIC receive path.  No host CPU is consumed: fragments
// are DMA'd into GM buffers (eager) or straight into the registered user
// buffer (rendezvous data), and an event token is queued for the library.
func (ep *gmEndpoint) onPacket(pkt *cluster.Packet) {
	f := pkt.Payload.(*gmFrag)
	switch f.kind {
	case gmEagerFrag:
		acc := ep.eagerAcc[f.id]
		if acc == nil {
			acc = ep.getAccum()
			acc.size, acc.src, acc.tag = f.size, f.src, f.tag
			if f.data != nil {
				acc.data = make([]byte, f.size)
			}
			ep.eagerAcc[f.id] = acc
		}
		if acc.data != nil {
			copy(acc.data[f.off:], f.data)
		}
		acc.got += f.n
		if f.last {
			if acc.got != acc.size {
				panic("transport: gm eager fragments lost")
			}
			delete(ep.eagerAcc, f.id)
			ep.pushEvent(gmEvent{kind: gmEvtMsg, in: &mpi.Inbound{
				Src: acc.src, Tag: acc.tag, Size: acc.size, Data: acc.data,
			}})
			ep.putAccum(acc) // acc.data escaped into the Inbound; the record is done
		}
	case gmRTS:
		acc := ep.getAccum()
		acc.id, acc.size, acc.src, acc.tag = f.id, f.size, f.src, f.tag
		ep.pushEvent(gmEvent{kind: gmEvtRTS, in: &mpi.Inbound{
			Src: f.src, Tag: f.tag, Size: f.size, Rndv: acc,
		}})
	case gmCTS:
		ep.pushEvent(gmEvent{kind: gmEvtCTS, id: f.id})
	case gmDataFrag:
		acc, ok := ep.dataAcc[f.id]
		if !ok {
			panic(fmt.Sprintf("transport: gm data for unregistered rendezvous %v", f.id))
		}
		if buf := acc.req.Buf(); f.off < len(buf) {
			copy(buf[f.off:], f.data)
		}
		acc.got += f.n
		if f.last {
			if acc.got != acc.size {
				panic("transport: gm rendezvous fragments lost")
			}
			delete(ep.dataAcc, f.id)
			ep.pushEvent(gmEvent{kind: gmEvtDataDone, req: acc.req,
				src: acc.src, tag: acc.tag, size: acc.size})
			ep.putAccum(acc)
		}
	}
	// The fragment has been fully consumed: recycle it.
	if ep.pooling() {
		*f = gmFrag{}
		ep.fragFree = append(ep.fragFree, f)
	}
}
