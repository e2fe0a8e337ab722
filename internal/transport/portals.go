package transport

import (
	"bytes"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/sim"
)

// PortalsConfig parameterizes the kernel-based Portals 3.0 model.
type PortalsConfig struct {
	// TrapCost is the kernel entry/exit cost of one syscall.
	TrapCost sim.Time
	// DescCost is the kernel cost to install or retire one descriptor
	// (match entry / send setup) inside a syscall.
	DescCost sim.Time
	// InterruptCost is the host cost of taking one NIC interrupt.
	InterruptCost sim.Time
	// RxKernelCost is the per-packet kernel protocol processing on receive
	// (reliability/flow-control module + Portals module dispatch).
	RxKernelCost sim.Time
	// TxKernelCost is the per-packet host processing on transmit.  It is
	// charged at interrupt priority: the MCP raises a transmit-done
	// interrupt per packet and the handler feeds the next descriptor, so
	// this work preempts in-progress syscall copies rather than queueing
	// behind them.
	TxKernelCost sim.Time
	// MatchCost is the kernel matching cost on a message's first packet.
	MatchCost sim.Time
	// TestCost is the user-level cost of MPI_Test/Wait checking the
	// completion flag the kernel maintains (no syscall needed).
	TestCost sim.Time
}

// DefaultPortalsConfig returns the calibrated Portals parameters.
func DefaultPortalsConfig() PortalsConfig {
	return PortalsConfig{
		TrapCost:      3 * sim.Microsecond,
		DescCost:      2 * sim.Microsecond,
		InterruptCost: 7 * sim.Microsecond,
		RxKernelCost:  2 * sim.Microsecond,
		TxKernelCost:  2 * sim.Microsecond,
		MatchCost:     1500 * sim.Nanosecond,
		TestCost:      500 * sim.Nanosecond,
	}
}

// Portals is the kernel-based, interrupt-driven, application-offload
// transport (Portals 3.0 on Myrinet, as in the paper).
type Portals struct {
	Config PortalsConfig
}

// NewPortals returns a Portals transport with default configuration.
func NewPortals() *Portals { return &Portals{Config: DefaultPortalsConfig()} }

// Name implements Transport.
func (t *Portals) Name() string { return "portals" }

// Offload implements Transport: Portals provides application offload.
func (t *Portals) Offload() bool { return true }

// Build implements Transport, attaching one endpoint per node with its
// kernel transmit driver.
func (t *Portals) Build(sys *cluster.System) []mpi.Endpoint {
	eps := make([]mpi.Endpoint, len(sys.Nodes))
	for i, node := range sys.Nodes {
		ep := &portalsEndpoint{
			cfg:      t.Config,
			node:     node,
			fab:      sys.Fabric,
			hub:      mpi.NewActivityHub(node.Env),
			inflight: make(map[msgID]*ptlInbound),
		}
		ep.rxKernelFn = ep.rxKernel
		ep.rxCopyStartFn = ep.rxCopyStart
		ep.rxCopyDoneFn = ep.rxCopyDone
		ep.tx.init(node, sys.Fabric, t.Config.TxKernelCost, ep.frag, nil)
		sys.Fabric.Attach(node.ID, ep.onPacket)
		eps[i] = ep
	}
	return eps
}

// ptlFrag is the payload of one Portals wire packet.  msg backs data (its
// kernel send buffer; nil for a length-only message) and inb is filled in
// by the receive path once the fragment is matched; both let the
// copy-completion stage recycle the sender-side objects without any
// closure captures.
type ptlFrag struct {
	id    msgID
	src   int
	tag   int
	size  int
	off   int
	n     int
	data  []byte
	first bool
	last  bool

	msg *txMsg
	inb *ptlInbound
}

// ptlInbound is kernel-side state for one arriving message.
type ptlInbound struct {
	id        msgID
	src, tag  int
	size      int
	req       *mpi.Request // nil until matched
	kbuf      []byte       // kernel buffering for the unexpected path; nil when length-only
	buffered  int          // bytes parked in the kernel awaiting a late match
	delivered int          // bytes landed in the user buffer
}

// portalsEndpoint models the MPI library half (thin), the kernel Portals
// module, and the packet-engine NIC for one rank.
//
// Receive path per packet: interrupt (Interrupt priority) -> kernel
// protocol processing + matching (Kernel priority) -> memcpy to user or
// kernel buffer (Kernel priority, host copy bandwidth).  All of this
// happens with no MPI calls: application offload.
//
// The endpoint recycles its per-message and per-fragment records on
// freelists: the last stage of each fragment's receive chain returns the
// fragment, and — on the final fragment — the message record, to the
// pool.  Per-message FIFO delivery (fabric order plus FIFO kernel
// queueing) guarantees the final fragment's copy completes last, so
// nothing can still reference the record at release time.  Pooling
// switches off automatically under fault injection, where duplicated
// deliveries break that guarantee.
type portalsEndpoint struct {
	cfg  PortalsConfig
	node *cluster.Node
	fab  *cluster.Fabric
	hub  *mpi.ActivityHub
	m    mpi.Matcher
	seq  int64
	tx   txDriver

	inflight map[msgID]*ptlInbound

	txFree   []*txMsg
	fragFree []*ptlFrag
	inbFree  []*ptlInbound

	rxKernelFn    func(any) // bound once: kernel protocol + match stage
	rxCopyStartFn func(any) // bound once: submit the payload copy
	rxCopyDoneFn  func(any) // bound once: land the payload, recycle
}

func (ep *portalsEndpoint) rank() int { return ep.node.ID }

// Activity implements mpi.Endpoint.
func (ep *portalsEndpoint) Activity() *sim.Event { return ep.hub.Activity() }

// Offload implements mpi.Endpoint: true — the defining Portals property.
func (ep *portalsEndpoint) Offload() bool { return true }

// MatchState implements mpi.MatchStater, backing MPI_Probe.
func (ep *portalsEndpoint) MatchState() *mpi.Matcher { return &ep.m }

// Progress implements mpi.Endpoint.  The kernel progresses communication
// by itself; MPI_Test/Wait merely read a completion flag in user memory.
func (ep *portalsEndpoint) Progress(p *sim.Proc) {
	ep.node.CPU.Use(p, ep.cfg.TestCost, cluster.User)
}

// pooling reports whether object recycling is safe (no fault injector).
func (ep *portalsEndpoint) pooling() bool { return !ep.fab.Injected() }

func (ep *portalsEndpoint) getTx() *txMsg {
	if n := len(ep.txFree); n > 0 && ep.pooling() {
		tx := ep.txFree[n-1]
		ep.txFree = ep.txFree[:n-1]
		return tx
	}
	return &txMsg{}
}

func (ep *portalsEndpoint) getFrag() *ptlFrag {
	if n := len(ep.fragFree); n > 0 && ep.pooling() {
		f := ep.fragFree[n-1]
		ep.fragFree = ep.fragFree[:n-1]
		return f
	}
	return &ptlFrag{}
}

func (ep *portalsEndpoint) getInbound() *ptlInbound {
	if n := len(ep.inbFree); n > 0 && ep.pooling() {
		inb := ep.inbFree[n-1]
		ep.inbFree = ep.inbFree[:n-1]
		return inb
	}
	return &ptlInbound{}
}

// Isend implements mpi.Endpoint: a syscall that copies the payload into
// kernel buffers and enqueues it for the transmit driver.  The request is
// complete (buffer reusable) when the syscall returns.
func (ep *portalsEndpoint) Isend(p *sim.Proc, r *mpi.Request) {
	n := r.Len()
	ep.node.CPU.Use(p, ep.cfg.TrapCost+ep.cfg.DescCost, cluster.Kernel)
	ep.node.Memcpy(p, n, cluster.Kernel)
	id := msgID{src: ep.rank(), seq: ep.seq}
	ep.seq++
	tx := ep.getTx()
	tx.id, tx.dst, tx.tag, tx.n = id, r.Peer(), r.Tag(), n
	tx.data = bytes.Clone(r.Data())
	ep.tx.push(tx)
	r.Complete(ep.rank(), r.Tag(), n)
}

// Irecv implements mpi.Endpoint: a syscall installing a kernel match
// entry.  If the message (or its head) already arrived, the syscall also
// performs the catch-up copy out of kernel buffers.
func (ep *portalsEndpoint) Irecv(p *sim.Proc, r *mpi.Request) {
	ep.node.CPU.Use(p, ep.cfg.TrapCost+ep.cfg.DescCost, cluster.Kernel)
	in := ep.m.PostRecv(r)
	if in == nil {
		return
	}
	inb := in.Rndv.(*ptlInbound)
	inb.req = r
	if inb.buffered > 0 {
		ep.node.Memcpy(p, inb.buffered, cluster.Kernel)
		if inb.kbuf != nil {
			copy(r.Buf(), inb.kbuf[:inb.buffered])
		}
		inb.delivered += inb.buffered
		inb.buffered = 0
	}
	// The rest of the message lands in the user buffer, so the kernel
	// bounce buffer is dead.
	inb.kbuf = nil
	ep.maybeComplete(inb)
}

// maybeComplete retires a fully-delivered inbound message.
func (ep *portalsEndpoint) maybeComplete(inb *ptlInbound) {
	if inb.req == nil || inb.delivered != inb.size {
		return
	}
	delete(ep.inflight, inb.id)
	req := inb.req
	count := min(inb.size, req.Len())
	src, tag := inb.src, inb.tag
	if ep.pooling() {
		*inb = ptlInbound{}
		ep.inbFree = append(ep.inbFree, inb)
	}
	req.Complete(src, tag, count)
	ep.hub.Wake()
}

// frag builds the wire payload of m's fragment [off, off+n) for the
// transmit driver.
func (ep *portalsEndpoint) frag(m *txMsg, off, n int, last bool) any {
	f := ep.getFrag()
	f.id, f.src, f.tag, f.size = m.id, ep.rank(), m.tag, m.n
	f.off, f.n = off, n
	if m.data != nil {
		f.data = m.data[off : off+n]
	}
	f.first, f.last = off == 0, last
	f.msg, f.inb = m, nil
	return f
}

// onPacket is the NIC receive path: raise an interrupt, then run kernel
// protocol processing and the copy to its final destination, all stealing
// host CPU from the application.  The chain runs as three pooled
// SubmitCall stages carrying the fragment itself — no per-packet
// closures or events.
func (ep *portalsEndpoint) onPacket(pkt *cluster.Packet) {
	f := pkt.Payload.(*ptlFrag)
	ep.node.CPU.SubmitCall(ep.cfg.InterruptCost, cluster.Interrupt, ep.rxKernelFn, f)
}

// rxKernel is the post-interrupt stage: per-packet protocol processing,
// plus matching on a message's first fragment.
func (ep *portalsEndpoint) rxKernel(a any) {
	f := a.(*ptlFrag)
	kcost := ep.cfg.RxKernelCost
	if f.first {
		kcost += ep.cfg.MatchCost
	}
	ep.node.CPU.SubmitCall(kcost, cluster.Kernel, ep.rxCopyStartFn, f)
}

// rxCopyStart resolves the fragment's inbound message (creating and
// matching it on first contact) and submits the payload copy.
func (ep *portalsEndpoint) rxCopyStart(a any) {
	f := a.(*ptlFrag)
	inb := ep.inflight[f.id]
	if inb == nil {
		inb = ep.getInbound()
		inb.id, inb.src, inb.tag, inb.size = f.id, f.src, f.tag, f.size
		ep.inflight[f.id] = inb
		if r := ep.m.Arrive(&mpi.Inbound{Src: f.src, Tag: f.tag, Size: f.size, Rndv: inb}); r != nil {
			inb.req = r
		} else {
			if f.data != nil {
				inb.kbuf = make([]byte, f.size)
			}
			// The envelope is now visible to probes.
			ep.hub.Wake()
		}
	}
	f.inb = inb
	ep.node.CPU.SubmitCall(ep.node.P.CopyTime(f.n), cluster.Kernel, ep.rxCopyDoneFn, f)
}

// rxCopyDone lands the fragment in its destination buffer, then recycles
// the fragment — and, on the last fragment, the sender's message record,
// which nothing can reference past this point.
func (ep *portalsEndpoint) rxCopyDone(a any) {
	f := a.(*ptlFrag)
	inb := f.inb
	if inb.req != nil {
		buf := inb.req.Buf()
		if f.off < len(buf) {
			copy(buf[f.off:], f.data)
		}
		inb.delivered += f.n
	} else {
		if inb.kbuf != nil {
			copy(inb.kbuf[f.off:], f.data)
		}
		inb.buffered += f.n
	}
	msg, last := f.msg, f.last
	if ep.pooling() {
		*f = ptlFrag{}
		ep.fragFree = append(ep.fragFree, f)
		if last {
			*msg = txMsg{}
			ep.txFree = append(ep.txFree, msg)
		}
	}
	ep.maybeComplete(inb)
}
