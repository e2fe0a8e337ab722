package transport

import (
	"comb/internal/cluster"
	"comb/internal/sim"
)

// txMsg is one message on a kernel send queue: its length, and its
// payload copied into a kernel send buffer unless it is length-only.
type txMsg struct {
	id   msgID
	dst  int
	tag  int
	n    int    // payload length; the driver fragments by it
	data []byte // kernel send buffer; nil when length-only
	// rto is the slot of TCP's retransmission timeout, armed once the
	// last segment has left; the message-complete ack disarms it, which
	// cancels the resend and lets the record be recycled.
	rto sim.Slot
}

// txDriver is the kernel transmit half that Portals and TCP share.  It
// is a callback chain driven by events, not a process: for each fragment
// of the message at the head of its queue it charges the per-packet host
// cost at interrupt priority (cluster.CPU.UseCall), hands the fragment to
// the packet engine, and paces itself to the wire by continuing at the
// instant the fragment has left.  Each step runs at the instant, and in
// the event order, at which a transmit process doing the same would run.
type txDriver struct {
	node *cluster.Node
	fab  *cluster.Fabric
	cost sim.Time // per-fragment host cost, charged at interrupt priority
	// frag builds the wire payload of m's fragment [off, off+n).
	frag func(m *txMsg, off, n int, last bool) any
	// sent, when set, runs once m's last fragment has left the wire.
	sent func(m *txMsg)

	q    []*txMsg
	cur  *txMsg // message being sent; nil between messages
	off  int    // offset of cur's next fragment
	last bool   // cur's last fragment is on its way
	busy bool   // a step is scheduled or running; false once q is drained

	runFn     func(any) // bound once: run
	chargedFn func(any) // bound once: charged
}

// init binds the driver to its node.
func (d *txDriver) init(node *cluster.Node, fab *cluster.Fabric, cost sim.Time, frag func(*txMsg, int, int, bool) any, sent func(*txMsg)) {
	d.node, d.fab, d.cost, d.frag, d.sent = node, fab, cost, frag, sent
	d.runFn, d.chargedFn = d.run, d.charged
}

// push queues m and restarts an idle driver at the current instant.
func (d *txDriver) push(m *txMsg) {
	d.q = append(d.q, m)
	if !d.busy {
		d.busy = true
		d.node.Env.ScheduleCall(0, d.runFn, nil)
	}
}

// run carries the chain as far as it goes in this event: it retires a
// message whose last fragment has left, takes the next one, and charges
// and sends fragments until one must wait for the CPU or the wire.
func (d *txDriver) run(any) {
	for {
		if d.last {
			if d.sent != nil {
				d.sent(d.cur)
			}
			d.cur, d.last = nil, false
		}
		if d.cur == nil {
			if len(d.q) == 0 {
				d.busy = false
				return
			}
			d.cur, d.off = d.q[0], 0
			d.q[0] = nil
			d.q = d.q[1:]
		}
		if !d.node.CPU.UseCall(d.cost, cluster.Interrupt, d.chargedFn, nil) || !d.send() {
			return
		}
	}
}

// charged continues the chain once a fragment's charge, queued behind
// other CPU work, has been served.
func (d *txDriver) charged(any) {
	if d.send() {
		d.run(nil)
	}
}

// send hands cur's next fragment to the packet engine.  It reports
// whether the chain continues in this event; otherwise run is scheduled
// for the instant the fragment has left the wire.
func (d *txDriver) send() bool {
	m := d.cur
	n := min(m.n-d.off, d.fab.Config().MTU)
	d.last = d.off+n == m.n
	pkt := d.fab.GetPacketFrom(d.node.ID)
	pkt.From, pkt.To, pkt.Size = d.node.ID, m.dst, n+d.node.P.PacketHeader
	pkt.Payload = d.frag(m, d.off, n, d.last)
	sentAt := d.fab.Send(pkt)
	d.off += n
	if now := d.node.Env.Now(); sentAt > now {
		d.node.Env.ScheduleCall(sentAt-now, d.runFn, nil)
		return false
	}
	return true
}
