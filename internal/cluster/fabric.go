package cluster

import (
	"fmt"

	"comb/internal/sim"
)

// Packet is one unit of data on the wire.  Size is the wire size in bytes
// (payload plus header); Payload carries transport-level metadata and is
// never inspected by the fabric.
//
// Urgent packets travel on a separate priority channel (Myrinet-style
// two-priority messaging): they do not queue behind bulk data on either
// port.  Transports use it for small control packets (RTS/CTS), whose
// head-of-line blocking behind in-flight payloads would otherwise stall
// the rendezvous pipeline.
type Packet struct {
	From, To int
	Size     int
	Urgent   bool
	Payload  any

	// pooled marks packets borrowed from a port's pool (GetPacketFrom);
	// the fabric reclaims them after sink consumption.  Sinks and
	// observers must therefore never retain a *Packet beyond their call —
	// copy the fields (or take the Payload) instead.
	pooled bool
}

// LinkConfig describes one network port/wire.
type LinkConfig struct {
	// Bandwidth is the wire data rate in bytes per second.
	Bandwidth float64
	// Latency is the one-way propagation plus switching delay.
	Latency sim.Time
	// PerPacket is extra occupancy per packet charged at both the sending
	// and receiving port.  It models the NIC packet engine (for Myrinet
	// LANai, firmware processing per packet).
	PerPacket sim.Time
	// MTU is the maximum packet payload size in bytes.
	MTU int
	// Jitter, when non-zero, scales each packet's port occupancy by a
	// uniform factor in [1-Jitter, 1+Jitter] drawn from the fabric's
	// seeded generator.  Runs stay deterministic per seed; jitter exists
	// to check that conclusions survive timing noise.
	Jitter float64
	// LossRate, when non-zero, drops each packet with this probability
	// after it has consumed its TX port occupancy (a corrupted frame
	// still burned wire time).  Only transports with their own
	// reliability layer (TCP) survive loss; the OS-bypass transports
	// assume the fabric's Myrinet-style reliability.
	LossRate float64
	// BackplaneBandwidth, when non-zero, caps the switch's aggregate
	// forwarding rate in bytes/sec: every packet additionally serializes
	// through the shared backplane between the TX and RX ports.  Zero
	// models an ideal non-blocking crossbar (the paper's 8-port SAN
	// switch at 2 nodes never saturates, but multi-pair runs do).
	BackplaneBandwidth float64
	// Seed seeds the jitter/loss generator (0 is a valid seed).
	Seed uint64
}

// Occupancy returns how long a packet of size bytes holds a port.
func (lc LinkConfig) Occupancy(size int) sim.Time {
	return sim.PerByte(int64(size), lc.Bandwidth) + lc.PerPacket
}

// occEntry caches the base (jitter-free) port occupancy for one packet
// size.  Messages fragment into at most two distinct wire sizes (full MTU
// and the tail), and control packets add a couple more, so a tiny
// direct-scanned cache removes the per-packet float math from the hot
// path.
type occEntry struct {
	size int
	occ  sim.Time
}

// Fabric is a switched network connecting N nodes.  Each node has a
// full-duplex port: packets serialize on the sender's TX side, cross the
// switch after Latency, and serialize again on the receiver's RX side.
// Delivery order is FIFO per (sender, receiver) pair and per receiver.
//
// Every send goes through the sending node's fabPort, which owns the TX
// lanes.  The receive half — backplane and RX lanes, shared by all
// senders — is claimed either inline, in the send's own event, or by
// Merge, which replays the mailed messages in (birth instant, node, send
// order).  A partitioned fabric always replays, between windows; a serial
// fabric replays at the end of each instant exactly when a parallel run
// of the same configuration could exist (Windowable), so both engines
// hand out contended receive slots in the same order.
type Fabric struct {
	cfg       LinkConfig
	rng       *sim.Rand
	rx, rxU   []sim.Time // RX busy-until per node, bulk and urgent lanes
	backplane sim.Time   // shared switch capacity busy-until
	ports     []*fabPort

	// env is the serial engine's environment, shared by every port; nil
	// on a partitioned fabric.
	env *sim.Env

	// replay sends the receive half of each port-to-port packet through
	// Merge instead of claiming it inline.  On a serial fabric, mailing
	// lists the ports with mail in the current instant, and mergeFn (bound
	// once) is the instant-end hook that drains them.
	replay  bool
	mailing []*fabPort
	mergeFn func()

	deliverFn func(any) // bound once: delivers a *Packet
	trainFn   func(any) // bound once: advances a *train

	lost    int64 // packets dropped by loss injection
	injDrop int64 // packets swallowed by the fault injector
	injDup  int64 // extra deliveries created by the fault injector

	// observers are called on every delivery (tracing, invariants,
	// fault-injection jitter).
	observers []func(*Packet, sim.Time)

	// injector, when set, vets every port-to-port packet's delivery.
	injector Injector
}

// fabPort is one node's side of the fabric: its TX lanes, its sink, the
// pool it borrows packets and trains from, and an outbox of mailed
// messages awaiting Merge.  On a partitioned fabric a port is only
// touched by its node's partition, except during Merge, which the window
// scheduler's barrier orders against all partition work.
type fabPort struct {
	f    *Fabric
	id   int
	env  *sim.Env
	pool *pool
	sink func(*Packet)

	tx, txU sim.Time // TX busy-until, bulk and urgent lanes

	occCache [4]occEntry
	occNext  int

	packets, bytes, delivered int64

	// Outbox: msgs in send order; mailPkts/mailSent are the flat packet
	// and sent-time arrays the messages index into, and obNext/pkNext the
	// merge cursors.  All four reset after each Merge, so steady state
	// reuses the same backing arrays.  seq numbers a serial port's
	// messages (see stamp).
	msgs     []mailMsg
	mailPkts []*Packet
	mailSent []sim.Time
	obNext   int
	pkNext   int
	seq      uint64
}

// pool is a packet and train freelist.  Packets return to the pool of the
// node that consumed them and trains to the pool of the node that ran
// them, so the ports of a serial fabric share one pool (with one each, a
// bulk sender's packets would pile up at its receiver), while each port
// of a partitioned fabric keeps its own, touched only by its partition or
// by Merge.  Pools stay empty under fault injection, where deliveries can
// be duplicated or delayed past any safe reuse point.
type pool struct {
	pkts   []*Packet
	trains []*train
}

func (pl *pool) packet() *Packet {
	if n := len(pl.pkts); n > 0 {
		pkt := pl.pkts[n-1]
		pl.pkts = pl.pkts[:n-1]
		return pkt
	}
	return &Packet{pooled: true}
}

// put reclaims a pooled packet; unpooled packets are left to the GC.
func (pl *pool) put(pkt *Packet) {
	if !pkt.pooled {
		return
	}
	*pkt = Packet{pooled: true}
	pl.pkts = append(pl.pkts, pkt)
}

func (pl *pool) train() *train {
	if n := len(pl.trains); n > 0 {
		t := pl.trains[n-1]
		pl.trains = pl.trains[:n-1]
		return t
	}
	return &train{}
}

func (pl *pool) putTrain(t *train) {
	for i := range t.pkts {
		t.pkts[i] = nil
	}
	t.pkts = t.pkts[:0]
	t.ats = t.ats[:0]
	t.next = 0
	pl.trains = append(pl.trains, t)
}

// Observe registers a delivery observer.  Observers run in registration
// order on every delivery and must not send packets of their own or
// retain the packet.  Used by runpipe's packet trace, the invariant
// checker and the fault injector.
func (f *Fabric) Observe(fn func(pkt *Packet, at sim.Time)) {
	f.observers = append(f.observers, fn)
}

// Injector decides the fate of packets on a fault-injected wire.  Given a
// packet and its natural delivery time, Deliver returns the set of times
// (each >= the natural time) at which a copy of the packet reaches the
// receiver: an empty set drops it, one entry delivers it (possibly late),
// and extra entries duplicate it.  The fabric accounts drops and
// duplicates so conservation checks stay exact.
type Injector interface {
	Deliver(pkt *Packet, at sim.Time) []sim.Time
}

// SetInjector installs the fault injector (at most one; later calls
// replace earlier ones).  It must be called before traffic flows: packet
// pooling, train batching and the instant-end replay are disabled while
// an injector is present, but packets already in flight on those paths
// would misbehave.  Fault injection reorders deliveries across partition
// boundaries, so it requires the serial engine; transports that inject
// should implement transport.FaultMarker so the platform layer falls back
// before building.
func (f *Fabric) SetInjector(inj Injector) {
	if f.env == nil {
		panic("cluster: fault injection requires the serial engine (implement transport.FaultMarker)")
	}
	f.injector = inj
	f.replay = inj == nil && Windowable(len(f.ports), f.cfg)
}

// Injected reports whether a fault injector is installed.  Transports use
// it to switch off their own object pooling: duplicated or delayed
// deliveries can reference a payload after its natural release point, so
// under injection every object must be left to the garbage collector.
func (f *Fabric) Injected() bool { return f.injector != nil }

// NewFabric returns a serial fabric with n ports on env.
func NewFabric(env *sim.Env, n int, cfg LinkConfig) *Fabric {
	f := newFabric(n, cfg)
	f.env = env
	f.replay = Windowable(n, cfg)
	f.mergeFn = f.Merge
	shared := &pool{}
	for i := range f.ports {
		f.ports[i] = &fabPort{f: f, id: i, env: env, pool: shared}
	}
	return f
}

// newFabric builds the state both engines share; the caller fills in the
// ports.
func newFabric(n int, cfg LinkConfig) *Fabric {
	if cfg.MTU <= 0 {
		panic("cluster: fabric MTU must be positive")
	}
	f := &Fabric{
		cfg:   cfg,
		rng:   sim.NewRand(cfg.Seed),
		rx:    make([]sim.Time, n),
		rxU:   make([]sim.Time, n),
		ports: make([]*fabPort, n),
	}
	f.deliverFn = func(a any) { f.deliver(a.(*Packet)) }
	f.trainFn = f.runTrain
	return f
}

// Config returns the fabric's link configuration.
func (f *Fabric) Config() LinkConfig { return f.cfg }

// Ports returns the number of attached ports.
func (f *Fabric) Ports() int { return len(f.ports) }

// Attach registers the packet sink for a node.  The sink runs in
// event-loop context when a packet finishes arriving at the node's RX port.
func (f *Fabric) Attach(node int, sink func(*Packet)) {
	p := f.ports[node]
	if p.sink != nil {
		panic(fmt.Sprintf("cluster: node %d already attached", node))
	}
	p.sink = sink
}

// GetPacketFrom returns an empty packet for a subsequent Send from node
// from.  On the fault-free path it comes from the port's pool and is
// reclaimed automatically after the receiving sink consumes it (or after
// a loss drop); under fault injection it is a plain allocation, since
// duplicated or delayed deliveries outlive any safe reuse point.
func (f *Fabric) GetPacketFrom(from int) *Packet {
	if f.injector != nil {
		return &Packet{}
	}
	return f.ports[from].pool.packet()
}

// occOf returns the base port occupancy for a packet of size bytes,
// memoized over the handful of wire sizes a run actually uses.
func (p *fabPort) occOf(size int) sim.Time {
	for i := range p.occCache {
		if p.occCache[i].size == size {
			return p.occCache[i].occ
		}
	}
	occ := p.f.cfg.Occupancy(size)
	p.occCache[p.occNext] = occEntry{size: size, occ: occ}
	p.occNext = (p.occNext + 1) & (len(p.occCache) - 1)
	return occ
}

// Send transmits pkt.  It returns the time at which the packet has fully
// left the sender's port (i.e. when the send-side buffer is reusable).
// Sends never block; contention shows up purely as queueing delay.
func (f *Fabric) Send(pkt *Packet) sim.Time {
	p := f.ports[pkt.From]
	now := p.env.Now()
	if f.replay && pkt.To != pkt.From {
		seq, sub := p.stamp(now)
		sent, _, _ := p.claim(pkt, now, true)
		p.enqueue(pkt, sent)
		p.seal(seq, sub, 1)
		return sent
	}
	sent, done, lost := p.claim(pkt, now, false)
	if !lost {
		p.deliverAt(pkt, now, done)
	}
	return sent
}

// SendMessage fragments a message of size bytes into MTU-sized packets and
// transmits them back to back.  mk builds the per-fragment payload given
// (fragment index, fragment bytes, last).  It returns the time the final
// fragment has left the sender's port.
//
// A mailed message replays as one unit, and an inline one travels as one
// train; under fault injection each fragment meets the injector on its
// own instead.
func (f *Fabric) SendMessage(from, to, size, header int, mk func(i, n int, last bool) any) sim.Time {
	if size < 0 {
		panic("cluster: negative message size")
	}
	p := f.ports[from]
	now := p.env.Now()
	mailed := f.replay && from != to
	var seq, sub uint64
	var t *train
	if mailed {
		seq, sub = p.stamp(now)
	} else if f.injector == nil {
		t = p.pool.train()
	}
	var sent sim.Time
	rem := size
	i := 0
	for {
		n := min(rem, f.cfg.MTU)
		rem -= n
		last := rem == 0
		pkt := f.GetPacketFrom(from)
		pkt.From, pkt.To, pkt.Size, pkt.Payload = from, to, n+header, mk(i, n, last)
		var done sim.Time
		var lost bool
		sent, done, lost = p.claim(pkt, now, mailed)
		switch {
		case mailed:
			p.enqueue(pkt, sent)
		case lost: // claim returned it to its pool
		case t == nil: // fault injection
			p.deliverAt(pkt, now, done)
		default:
			t.pkts = append(t.pkts, pkt)
			t.ats = append(t.ats, done)
		}
		i++
		if last {
			break
		}
	}
	switch {
	case mailed:
		p.seal(seq, sub, int32(i))
	case t == nil: // fault injection: each fragment is already scheduled
	case len(t.pkts) == 0: // every fragment lost
		p.pool.putTrain(t)
	case len(t.pkts) == 1:
		p.env.ScheduleCall(t.ats[0]-now, f.deliverFn, t.pkts[0])
		p.pool.putTrain(t)
	default:
		p.env.ScheduleCall(t.ats[0]-now, f.trainFn, t)
	}
	return sent
}

// claim puts pkt on the wire in the fabric's per-packet order: jitter
// draw, TX claim, loss draw, then the RX claim with the same (possibly
// jittered) occupancy — unless the packet is mailed, which leaves the
// receive half to Merge.  Loopback packets skip the ports and arrive after
// the nominal latency.  It returns when the packet has fully left the
// sender's port, when it finishes arriving (unset when mailed), and
// whether loss ate it; a lost packet is already back in its pool.
func (p *fabPort) claim(pkt *Packet, now sim.Time, mailed bool) (sent, done sim.Time, lost bool) {
	f := p.f
	p.packets++
	p.bytes += int64(pkt.Size)
	if pkt.To == p.id {
		return now, now + f.cfg.Latency, false
	}
	occ := p.occOf(pkt.Size)
	if f.cfg.Jitter > 0 {
		occ = f.rng.Jitter(occ, f.cfg.Jitter)
	}
	lane := &p.tx
	if pkt.Urgent {
		lane = &p.txU
	}
	sent = max(*lane, now) + occ
	*lane = sent
	if f.cfg.LossRate > 0 && f.rng.Float64() < f.cfg.LossRate {
		f.lost++
		p.pool.put(pkt)
		return sent, 0, true
	}
	if mailed {
		return sent, 0, false
	}
	return sent, f.rxClaim(pkt, sent, occ), false
}

// rxClaim is the receive half of a packet's transit: wire latency,
// optional backplane serialization, then occ on the receiver's RX lane.
func (f *Fabric) rxClaim(pkt *Packet, sent, occ sim.Time) sim.Time {
	arrive := sent + f.cfg.Latency
	if f.cfg.BackplaneBandwidth > 0 {
		// Shared switching capacity: serialize through the backplane.
		f.backplane = max(f.backplane, arrive) + sim.PerByte(int64(pkt.Size), f.cfg.BackplaneBandwidth)
		arrive = f.backplane
	}
	lane := f.rx
	if pkt.Urgent {
		lane = f.rxU
	}
	lane[pkt.To] = max(lane[pkt.To], arrive) + occ
	return lane[pkt.To]
}

// deliverAt schedules pkt's delivery at its natural arrival time at,
// letting the fault injector (if any) drop, delay, or duplicate it first.
func (p *fabPort) deliverAt(pkt *Packet, now, at sim.Time) {
	f := p.f
	if f.injector == nil {
		p.env.ScheduleCall(at-now, f.deliverFn, pkt)
		return
	}
	whens := f.injector.Deliver(pkt, at)
	if len(whens) == 0 {
		f.injDrop++
		return
	}
	f.injDup += int64(len(whens) - 1)
	for _, w := range whens {
		if w < at {
			panic(fmt.Sprintf("cluster: injector delivery at %v before natural time %v", w, at))
		}
		p.env.Schedule(w-now, func() { f.deliver(pkt) })
	}
}

// deliver hands a fully-arrived packet to its destination's sink, in the
// destination's environment, and returns it to the destination's pool.
func (f *Fabric) deliver(pkt *Packet) {
	p := f.ports[pkt.To]
	p.delivered++
	for _, obs := range f.observers {
		obs(pkt, p.env.Now())
	}
	if p.sink == nil {
		panic(fmt.Sprintf("cluster: packet for unattached node %d", pkt.To))
	}
	p.sink(pkt)
	p.pool.put(pkt)
}

// train is a fragmented message in flight: the fragments' packets and
// precomputed delivery times (non-decreasing — each fragment serializes
// behind its predecessor).  One chained delivery event walks the train
// instead of one queued closure per fragment, keeping the event queue
// short and allocation-free.
type train struct {
	pkts []*Packet
	ats  []sim.Time
	next int
}

// runTrain delivers the train's due fragment, plus any further fragments
// sharing the same delivery instant — delivering the group inside one
// event firing reproduces exactly the back-to-back order the per-fragment
// scheme produced — then chains one event to the next strictly-later
// fragment.
func (f *Fabric) runTrain(a any) {
	t := a.(*train)
	p := f.ports[t.pkts[t.next].To]
	now := p.env.Now()
	for {
		pkt := t.pkts[t.next]
		t.pkts[t.next] = nil
		t.next++
		f.deliver(pkt)
		if t.next == len(t.pkts) {
			p.pool.putTrain(t)
			return
		}
		if at := t.ats[t.next]; at != now {
			p.env.ScheduleCall(at-now, f.trainFn, t)
			return
		}
	}
}

// Stats returns (packets sent, wire bytes sent, packets delivered), summed
// over the ports.  On a partitioned fabric callers read stats after the
// run, when the window scheduler's barrier has ordered all partition
// writes before this goroutine.
func (f *Fabric) Stats() (packets, bytes, delivered int64) {
	for _, p := range f.ports {
		packets += p.packets
		bytes += p.bytes
		delivered += p.delivered
	}
	return packets, bytes, delivered
}

// Lost returns the number of packets dropped by loss injection.
func (f *Fabric) Lost() int64 { return f.lost }

// InjectStats returns the fault injector's accounting: packets it
// swallowed and extra deliveries it created.  Both are zero when no
// injector is installed.
func (f *Fabric) InjectStats() (dropped, duplicated int64) {
	return f.injDrop, f.injDup
}
