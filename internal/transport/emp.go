package transport

import (
	"bytes"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/sim"
)

// EMPConfig parameterizes the EMP model: zero-copy, OS-bypass, NIC-driven
// message passing on programmable gigabit Ethernet NICs (Shivam, Wyckoff,
// Panda — SC 2001, the paper's reference [10], whose authors used an early
// COMB to assess their system).
type EMPConfig struct {
	// PostCost is the host cost to hand a send or receive descriptor to
	// the NIC (user level, doorbell write + descriptor build).
	PostCost sim.Time
	// NICMatchCost is the NIC-firmware matching cost per message,
	// serialized on the receive port (Alteon firmware cycles).
	NICMatchCost sim.Time
	// TestCost is the user-level completion-flag check.
	TestCost sim.Time
}

// DefaultEMPConfig returns calibrated EMP parameters.
func DefaultEMPConfig() EMPConfig {
	return EMPConfig{
		PostCost:     4 * sim.Microsecond,
		NICMatchCost: 6 * sim.Microsecond,
		TestCost:     500 * sim.Nanosecond,
	}
}

// EMP models a NIC-offloaded gigabit Ethernet system: matching happens in
// NIC firmware, data DMAs straight between user buffers and the wire
// (zero copy, no interrupts in the fast path), and completion flags are
// written to user memory by the NIC.  It therefore provides application
// offload AND near-zero host overhead — at gigabit-Ethernet wire speed
// with jumbo frames.
type EMP struct {
	Config EMPConfig
}

// NewEMP returns an EMP transport with default configuration.
func NewEMP() *EMP { return &EMP{Config: DefaultEMPConfig()} }

// Name implements Transport.
func (t *EMP) Name() string { return "emp" }

// PreferredLink implements LinkPreferencer: gigabit Ethernet with jumbo
// frames on Alteon-class NICs.
func (t *EMP) PreferredLink() (cluster.LinkConfig, int) {
	return cluster.LinkConfig{
		Bandwidth: 125 * cluster.MB, // 1 Gb/s
		Latency:   5 * sim.Microsecond,
		PerPacket: 9 * sim.Microsecond, // firmware per-frame processing
		MTU:       9000,                // jumbo frames
	}, 18
}

// Build implements Transport.
func (t *EMP) Build(sys *cluster.System) []mpi.Endpoint {
	eps := make([]mpi.Endpoint, len(sys.Nodes))
	pools := perEnv[empPools](sys)
	for i, node := range sys.Nodes {
		ep := &empEndpoint{
			endpoint: newEndpoint(sys, node),
			empPools: pools[node.Env],
			cfg:      t.Config,
			acc:      make(map[msgID]*empAccum),
		}
		ep.sendDoneFn = ep.sendDone
		ep.matchFn = ep.match
		sys.Fabric.Attach(node.ID, ep.onPacket)
		eps[i] = ep
	}
	return eps
}

// empFrag is one wire frame.  acc carries the receive accumulator
// through the deferred firmware-match event.
type empFrag struct {
	frag
	acc *empAccum
}

type empAccum struct {
	size int
	got  int
	data []byte // on-card assembly buffer; nil when length-only
	src  int
	tag  int
	req  *mpi.Request // matched destination, nil while unexpected
}

// empEndpoint is the per-rank NIC state.  Matching runs "in firmware":
// modeled as NIC-side work with no host CPU, serialized by the wire port
// occupancy already charged per frame, plus a fixed match delay.
type empEndpoint struct {
	endpoint
	*empPools
	cfg EMPConfig
	acc map[msgID]*empAccum

	sendDoneFn func(any) // bound once: completes a finished send
	matchFn    func(any) // bound once: deferred firmware match
}

// empPools holds the EMP records of one environment's endpoints.
type empPools struct {
	frags freelist[empFrag]
	accs  freelist[empAccum]
}

// Progress implements mpi.Endpoint: completion flags live in user memory.
func (ep *empEndpoint) Progress(p *sim.Proc) {
	ep.node.CPU.Use(p, ep.cfg.TestCost, cluster.User)
}

// Isend implements mpi.Endpoint: build a descriptor, ring the doorbell;
// the NIC DMAs straight from the user buffer.  The request completes when
// the final frame has left the host.
func (ep *empEndpoint) Isend(p *sim.Proc, r *mpi.Request) {
	ep.node.CPU.Use(p, ep.cfg.PostCost, cluster.User)
	id, size, data := ep.nextID(), r.Len(), bytes.Clone(r.Data())
	off := 0
	sentAt := ep.fab.SendMessage(ep.rank(), r.Peer(), size, ep.node.P.PacketHeader,
		func(i, n int, last bool) any {
			f := ep.frags.get(ep.pooling())
			f.set(id, r.Tag(), size, off, n, data, last)
			off += n
			return f
		})
	ep.callAt(sentAt, ep.sendDoneFn, r)
}

// Irecv implements mpi.Endpoint: hand the NIC a match descriptor.
func (ep *empEndpoint) Irecv(p *sim.Proc, r *mpi.Request) {
	ep.node.CPU.Use(p, ep.cfg.PostCost, cluster.User)
	in := ep.m.PostRecv(r)
	if in == nil {
		return
	}
	// Late post: the NIC had buffered the message on-card; it now DMAs it
	// to the user buffer with no host involvement.
	a := in.Rndv.(*empAccum)
	a.req = r
	ep.maybeComplete(a)
}

func (ep *empEndpoint) maybeComplete(a *empAccum) {
	if a.req == nil || a.got != a.size {
		return
	}
	copy(a.req.Buf(), a.data)
	req, src, tag, size := a.req, a.src, a.tag, a.size
	ep.accs.put(a, ep.pooling())
	req.Complete(src, tag, min(size, req.Len()))
	ep.act.Broadcast()
}

// onPacket is the NIC receive path: firmware matches the first frame
// (after NICMatchCost of firmware time) and DMAs payloads directly to the
// user buffer.  No host CPU anywhere.
func (ep *empEndpoint) onPacket(pkt *cluster.Packet) {
	f := pkt.Payload.(*empFrag)
	a := ep.acc[f.id]
	if a == nil {
		a = ep.accs.get(ep.pooling())
		a.size, a.src, a.tag = f.size, f.src, f.tag
		if f.data != nil {
			a.data = make([]byte, f.size)
		}
		ep.acc[f.id] = a
		// Firmware matching happens once per message; model its latency
		// by deferring the first frame's accounting.
		f.acc = a
		ep.node.Env.ScheduleCall(ep.cfg.NICMatchCost, ep.matchFn, f)
		return
	}
	ep.landFrag(a, f)
	ep.frags.put(f, ep.pooling())
}

// match is the deferred firmware-match stage for a message's first frame.
func (ep *empEndpoint) match(arg any) {
	f := arg.(*empFrag)
	a := f.acc
	in := &mpi.Inbound{Src: f.src, Tag: f.tag, Size: f.size, Rndv: a}
	if r := ep.m.Arrive(in); r != nil {
		a.req = r
	} else {
		// The envelope is now visible to probes.
		ep.act.Broadcast()
	}
	ep.landFrag(a, f)
	ep.frags.put(f, ep.pooling())
}

// landFrag accounts one frame's payload and completes the message when
// everything (including the match) has happened.
func (ep *empEndpoint) landFrag(a *empAccum, f *empFrag) {
	if a.data != nil {
		copy(a.data[f.off:], f.data)
	}
	a.got += f.n
	if a.got == a.size {
		delete(ep.acc, f.id)
		ep.maybeComplete(a)
	}
}
