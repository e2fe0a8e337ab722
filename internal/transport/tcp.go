package transport

import (
	"bytes"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/sim"
)

// TCPConfig parameterizes the kernel TCP/IP-over-Fast-Ethernet model — the
// environment netperf was designed for (paper §5) and the commodity
// baseline the OS-bypass interconnects of the era were displacing.
type TCPConfig struct {
	// TrapCost is the kernel entry/exit cost of one socket syscall.
	TrapCost sim.Time
	// InterruptCost is the host cost of one NIC interrupt (data segment
	// or ACK).
	InterruptCost sim.Time
	// SegKernelCost is per-segment TCP/IP protocol processing (header
	// parsing, ACK clocking) on either side.  On transmit it is charged
	// at interrupt priority: continuation runs from TX-done interrupts
	// and softirq context, preempting in-progress syscall copies.
	SegKernelCost sim.Time
	// ChecksumBandwidth is the software checksum rate in bytes/sec,
	// charged on top of the socket copies (no checksum offload in 2002
	// commodity NICs).
	ChecksumBandwidth float64
	// AckEvery is the delayed-ACK ratio: one ACK per this many data
	// segments.
	AckEvery int
	// AckSize is the ACK wire size in bytes.
	AckSize int
	// RTO is the retransmission timeout: a message unacknowledged this
	// long after its last segment left is resent in full (go-back-N at
	// message granularity).  Era stacks used 200 ms minimum; the default
	// here is compressed to keep simulations short.
	RTO sim.Time
	// LibCopyCost reflects the MPI-library-side matching cost per message
	// when draining the socket (user priority).
	LibCopyCost sim.Time
	// PollCost is charged per library progress poll.
	PollCost sim.Time
}

// DefaultTCPConfig returns parameters for a 2002 commodity stack
// (Linux 2.2/2.4 class).
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		TrapCost:          3 * sim.Microsecond,
		InterruptCost:     8 * sim.Microsecond,
		SegKernelCost:     10 * sim.Microsecond,
		ChecksumBandwidth: 300 * cluster.MB,
		AckEvery:          2,
		AckSize:           64,
		RTO:               20 * sim.Millisecond,
		LibCopyCost:       2 * sim.Microsecond,
		PollCost:          500 * sim.Nanosecond,
	}
}

// TCP models an MPI implementation over kernel TCP/IP sockets on switched
// 100 Mb/s Ethernet (the MPICH/p4 environment).  The kernel delivers
// bytes into socket buffers autonomously (interrupt-driven, with copies
// and software checksums), but MPI matching and the socket→user copy
// happen only inside library calls, so message completion is
// library-driven: a hybrid of the paper's two progress disciplines.
type TCP struct {
	Config TCPConfig
}

// NewTCP returns a TCP transport with default configuration.
func NewTCP() *TCP { return &TCP{Config: DefaultTCPConfig()} }

// Name implements Transport.
func (t *TCP) Name() string { return "tcp" }

// PreferredLink implements LinkPreferencer: switched Fast Ethernet.
func (t *TCP) PreferredLink() (cluster.LinkConfig, int) {
	return cluster.LinkConfig{
		Bandwidth: 12.5 * cluster.MB, // 100 Mb/s
		Latency:   20 * sim.Microsecond,
		PerPacket: 0, // store-and-forward cost folded into latency
		MTU:       1460,
	}, 58 // Ethernet + IP + TCP headers
}

// Build implements Transport.
func (t *TCP) Build(sys *cluster.System) []mpi.Endpoint {
	eps := make([]mpi.Endpoint, len(sys.Nodes))
	pools := perEnv[tcpPools](sys)
	for i, node := range sys.Nodes {
		ep := &tcpEndpoint{
			endpoint:  newEndpoint(sys, node),
			tcpPools:  pools[node.Env],
			cfg:       t.Config,
			inflight:  make(map[msgID]*tcpInbound),
			unacked:   make(map[msgID]*txMsg),
			completed: make(map[msgID]bool),
		}
		ep.rxKernelFn = ep.rxKernel
		ep.rxProtoFn = ep.rxProto
		ep.rxAcceptFn = ep.rxAccept
		ep.retransmitFn = ep.retransmit
		ep.tx.init(node, sys.Fabric, t.Config.SegKernelCost, ep.seg, ep.armRetransmit)
		sys.Fabric.Attach(node.ID, ep.onPacket)
		eps[i] = ep
	}
	return eps
}

// tcpSeg is one TCP segment (or ACK) on the wire.
type tcpSeg struct {
	frag
	isAck bool
	// ackDone marks a message-complete acknowledgement for id: the
	// receiver's reliability layer telling the sender to stop
	// retransmitting.
	ackDone bool
}

// tcpInbound is kernel socket-buffer state for one arriving message.
type tcpInbound struct {
	id       msgID
	src, tag int
	size     int
	got      int      // unique bytes landed in the socket buffer
	data     []byte   // socket buffer contents; nil when length-only
	rcvd     []uint64 // segments seen, bit off/MTU (dedup under retransmission)
}

// tcpEndpoint models the socket API, the kernel TCP/IP stack and the MPI
// library half for one rank.
type tcpEndpoint struct {
	endpoint
	*tcpPools
	cfg TCPConfig
	tx  txDriver

	inflight  map[msgID]*tcpInbound
	ready     []*tcpInbound    // fully-buffered messages awaiting the library
	rxSegs    int64            // delayed-ACK counter
	unacked   map[msgID]*txMsg // sent, awaiting a message-complete ack
	completed map[msgID]bool   // messages already delivered (re-ack dups)
	rtoFree   []sim.Slot       // disarmed retransmission-timeout slots

	rxKernelFn   func(any) // bound once: post-interrupt protocol stage
	rxProtoFn    func(any) // bound once: ack handling / copy submission
	rxAcceptFn   func(any) // bound once: land segment in socket buffer
	retransmitFn func(any) // bound once: RTO expiry for a *txMsg
}

// tcpPools holds the TCP records of one environment's endpoints.
type tcpPools struct {
	msgs freelist[txMsg]
	segs freelist[tcpSeg]
}

// hostByteCost returns the kernel CPU time to copy+checksum n bytes.
func (ep *tcpEndpoint) hostByteCost(n int) sim.Time {
	return ep.node.P.CopyTime(n) + sim.PerByte(int64(n), ep.cfg.ChecksumBandwidth)
}

// Isend implements mpi.Endpoint: a write() — trap plus copy+checksum into
// the socket buffer; the kernel transmits asynchronously.  The request
// completes when the syscall returns (buffered send).
func (ep *tcpEndpoint) Isend(p *sim.Proc, r *mpi.Request) {
	n := r.Len()
	ep.node.CPU.Use(p, ep.cfg.TrapCost, cluster.Kernel)
	ep.node.CPU.Use(p, ep.hostByteCost(n), cluster.Kernel)
	tx := ep.msgs.get(ep.pooling())
	tx.id, tx.dst, tx.tag, tx.n = ep.nextID(), r.Peer(), r.Tag(), n
	tx.data = bytes.Clone(r.Data())
	ep.tx.push(tx)
	r.Complete(ep.rank(), r.Tag(), n)
}

// Irecv implements mpi.Endpoint: posting is a library-level operation
// (sockets have no matching); it drains any already-buffered messages.
func (ep *tcpEndpoint) Irecv(p *sim.Proc, r *mpi.Request) {
	if in := ep.m.PostRecv(r); in != nil {
		ep.deliver(p, r, in)
	}
}

// Progress implements mpi.Endpoint: drain fully-buffered socket messages
// into the MPI matching engine, copying matched payloads to user buffers
// at user priority (the library does this copy, not the kernel).
func (ep *tcpEndpoint) Progress(p *sim.Proc) {
	ep.node.CPU.Use(p, ep.cfg.PollCost, cluster.User)
	for len(ep.ready) > 0 {
		inb := ep.ready[0]
		ep.ready = ep.ready[1:]
		in := &mpi.Inbound{Src: inb.src, Tag: inb.tag, Size: inb.size, Data: inb.data}
		if r := ep.m.Arrive(in); r != nil {
			ep.deliver(p, r, in)
		}
	}
}

// deliver copies a buffered message into the user buffer and completes
// the receive.
func (ep *tcpEndpoint) deliver(p *sim.Proc, r *mpi.Request, in *mpi.Inbound) {
	ep.node.CPU.Use(p, ep.cfg.LibCopyCost, cluster.User)
	ep.node.Memcpy(p, in.Size, cluster.User)
	land(r, in)
}

// seg builds the wire segment for m's bytes [off, off+n) for the
// transmit driver.
func (ep *tcpEndpoint) seg(m *txMsg, off, n int, last bool) any {
	seg := ep.segs.get(ep.pooling())
	seg.set(m.id, m.tag, m.n, off, n, m.data, last)
	return seg
}

// armRetransmit registers msg as awaiting its message-complete ack and
// arms the timeout that re-enqueues it in a slot from the endpoint's
// freelist.  An arriving ack disarms the slot, so the message record is
// released at once instead of staying captured until the RTO expires.
// Each armed slot belongs to one message awaiting its ack, so the
// endpoint never holds more slots than it has had such messages at once.
func (ep *tcpEndpoint) armRetransmit(msg *txMsg) {
	if ep.cfg.RTO <= 0 {
		return
	}
	env := ep.node.Env
	if n := len(ep.rtoFree); n > 0 {
		msg.rto = ep.rtoFree[n-1]
		ep.rtoFree = ep.rtoFree[:n-1]
	} else {
		msg.rto = env.NewSlots(1)
	}
	ep.unacked[msg.id] = msg
	env.Arm(msg.rto, ep.cfg.RTO, ep.retransmitFn, msg)
}

// retransmit handles RTO expiry: the slot goes back to the freelist, and
// the whole message goes back on the send queue (go-back-N at message
// granularity, like an era stack after a coarse RTO).
func (ep *tcpEndpoint) retransmit(a any) {
	msg := a.(*txMsg)
	ep.rtoFree = append(ep.rtoFree, msg.rto)
	delete(ep.unacked, msg.id)
	ep.tx.push(msg)
}

// onPacket is the receive path: interrupt, protocol processing, and the
// copy+checksum into the socket buffer — all kernel work independent of
// MPI calls.  ACKs cost an interrupt and protocol processing only.  The
// chain runs as pooled SubmitCall stages carrying the segment itself.
func (ep *tcpEndpoint) onPacket(pkt *cluster.Packet) {
	seg := pkt.Payload.(*tcpSeg)
	ep.node.CPU.SubmitCall(ep.cfg.InterruptCost, cluster.Interrupt, ep.rxKernelFn, seg)
}

// rxKernel is the post-interrupt per-segment protocol stage.
func (ep *tcpEndpoint) rxKernel(a any) {
	ep.node.CPU.SubmitCall(ep.cfg.SegKernelCost, cluster.Kernel, ep.rxProtoFn, a)
}

// rxProto consumes ACKs, or submits the data copy+checksum.
func (ep *tcpEndpoint) rxProto(a any) {
	seg := a.(*tcpSeg)
	if seg.isAck {
		if seg.ackDone {
			if msg, waiting := ep.unacked[seg.id]; waiting {
				delete(ep.unacked, seg.id)
				// The receiver consumed every segment before acking, so
				// nothing references the send buffer any more: disarm the
				// retransmit timeout and recycle the slot and the record.
				ep.node.Env.Disarm(msg.rto)
				ep.rtoFree = append(ep.rtoFree, msg.rto)
				ep.msgs.put(msg, ep.pooling())
			}
		}
		ep.segs.put(seg, ep.pooling())
		return
	}
	ep.node.CPU.SubmitCall(ep.hostByteCost(seg.n), cluster.Kernel, ep.rxAcceptFn, seg)
}

// rxAccept lands the segment and recycles it.
func (ep *tcpEndpoint) rxAccept(a any) {
	seg := a.(*tcpSeg)
	ep.acceptSegment(seg)
	ep.segs.put(seg, ep.pooling())
}

// acceptSegment lands a data segment in the socket buffer (deduplicating
// retransmissions), emits delayed ACKs, and hands completed messages to
// the library with a message-complete ack back to the sender.
func (ep *tcpEndpoint) acceptSegment(seg *tcpSeg) {
	// Delayed ACK: one per AckEvery data segments, duplicates included.
	ep.rxSegs++
	if ep.cfg.AckEvery > 0 && ep.rxSegs%int64(ep.cfg.AckEvery) == 0 {
		ack := ep.segs.get(ep.pooling())
		ack.isAck, ack.src = true, ep.rank()
		pkt := ep.fab.GetPacketFrom(ep.node.ID)
		pkt.From, pkt.To, pkt.Size = ep.rank(), seg.src, ep.cfg.AckSize
		pkt.Payload = ack
		ep.fab.Send(pkt)
	}

	if ep.completed[seg.id] {
		// A retransmission of something already delivered: the original
		// complete-ack must have been lost.  Re-ack, discard the data.
		ep.sendDoneAck(seg)
		return
	}

	// The transmit driver cuts every send of a message, retransmissions
	// included, at multiples of the MTU, so off/MTU numbers a segment.
	mtu := ep.fab.Config().MTU
	inb := ep.inflight[seg.id]
	if inb == nil {
		inb = &tcpInbound{
			id: seg.id, src: seg.src, tag: seg.tag, size: seg.size,
			rcvd: make([]uint64, seg.size/mtu/64+1),
		}
		if seg.data != nil {
			inb.data = make([]byte, seg.size)
		}
		ep.inflight[seg.id] = inb
	}
	if i, bit := seg.off/mtu/64, uint64(1)<<(seg.off/mtu%64); inb.rcvd[i]&bit == 0 {
		inb.rcvd[i] |= bit
		if inb.data != nil {
			copy(inb.data[seg.off:], seg.data)
		}
		inb.got += seg.n
	}

	if inb.got == inb.size {
		delete(ep.inflight, seg.id)
		ep.completed[seg.id] = true
		ep.sendDoneAck(seg)
		ep.ready = append(ep.ready, inb)
		ep.act.Broadcast()
	}
}

// sendDoneAck tells seg's sender the whole message arrived.
func (ep *tcpEndpoint) sendDoneAck(seg *tcpSeg) {
	if ep.cfg.RTO <= 0 {
		return
	}
	ack := ep.segs.get(ep.pooling())
	ack.isAck, ack.ackDone, ack.id, ack.src = true, true, seg.id, ep.rank()
	pkt := ep.fab.GetPacketFrom(ep.node.ID)
	pkt.From, pkt.To, pkt.Size = ep.rank(), seg.src, ep.cfg.AckSize
	pkt.Payload = ack
	ep.fab.Send(pkt)
}
