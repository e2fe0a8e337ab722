package cluster

import "comb/internal/sim"

// This file is the replay side of the fabric.
//
// A mailed send claims only sender-side resources (TX occupancy), which
// depend on nothing outside the sender, then leaves its packets in the
// port's outbox under a (birth instant, node|seq) stamp.  Merge replays
// the outboxes in global stamp order, claiming backplane and RX-lane time
// and scheduling the deliveries on the destination.  On the partitioned
// engine Merge runs single-threaded between windows, and conservative
// lookahead (see Lookahead) guarantees every merged delivery lands at or
// beyond the current window bound, never in a partition's past.  A serial
// fabric runs the same Merge at the end of each instant in which a port
// mailed, so same-instant senders into one node take their receive slots
// in node order on both engines — the traffic shape collective trees
// create.  Serial configurations no parallel run could share (see
// Windowable) claim inline instead: their order is part of their seeded
// histories.

// mailMsg is one outbound message in a port's outbox: its merge stamp and
// how many packets of the flat mailPkts/mailSent arrays it spans.
// Fragments replay back to back under one stamp.
type mailMsg struct {
	seq, sub uint64
	npkts    int32
}

// Windowable reports whether an n-node fabric on link could run under the
// window engine, and so whether a serial fabric replays its sends the
// way Merge does.  It needs more than two nodes (two cannot gain from
// partitioning), no jitter or loss (they draw from one random stream in
// global event order, which partitions cannot reproduce), and a positive
// lookahead.  The platform layer adds one condition of its own, a
// transport that injects no faults; SetInjector turns the replay off
// likewise.
func Windowable(n int, link LinkConfig) bool {
	return n > 2 && link.Jitter == 0 && link.LossRate == 0 &&
		link.Latency+2*link.PerPacket > 0
}

// NewParallelFabric returns a fabric with one port per environment, in
// partitioned mode.  Jitter and loss draw from a single global random
// stream whose consumption order depends on global event order, so they
// cannot be partitioned deterministically; the platform layer falls back
// to the serial engine instead of ever reaching this panic.
func NewParallelFabric(envs []*sim.Env, cfg LinkConfig) *Fabric {
	if cfg.Jitter > 0 || cfg.LossRate > 0 {
		panic("cluster: a partitioned fabric cannot model jitter or loss")
	}
	f := newFabric(len(envs), cfg)
	f.replay = true
	for i, env := range envs {
		f.ports[i] = &fabPort{f: f, id: i, env: env, pool: &pool{}}
	}
	return f
}

// Partitioned reports whether this fabric runs in partitioned mode.
func (f *Fabric) Partitioned() bool { return f.env == nil }

// Lookahead returns the minimum cross-partition delivery delay: a packet
// sent at t occupies the TX port for at least PerPacket, crosses the wire
// in Latency, and occupies the RX port for at least PerPacket, so it can
// never be due before t + Latency + 2·PerPacket.  The backplane only adds
// delay.  A zero lookahead means the topology cannot be conservatively
// windowed and the caller must use the serial engine.
func (f *Fabric) Lookahead() sim.Time {
	return f.cfg.Latency + 2*f.cfg.PerPacket
}

// stamp draws the merge stamp for a message p is about to mail.  A
// partition draws it from its environment, so the merged delivery sorts
// among the destination's local events where the serial engine's
// globally-sequenced one would.  A serial port's stamps only have to
// order the instant that Merge closes, so the port numbers its own
// messages and leaves the environment's sequence untouched.
func (p *fabPort) stamp(now sim.Time) (seq, sub uint64) {
	if p.f.env == nil {
		return p.env.MailStamp()
	}
	p.seq++
	return uint64(now), uint64(p.id+1)<<40 | p.seq
}

// enqueue adds one claimed packet to the message p is mailing.
func (p *fabPort) enqueue(pkt *Packet, sent sim.Time) {
	p.mailPkts = append(p.mailPkts, pkt)
	p.mailSent = append(p.mailSent, sent)
}

// seal closes the message of the last npkts enqueued packets under its
// stamp.  A serial port mailing first in an instant lists itself for
// that instant's Merge, and the first port schedules it.
func (p *fabPort) seal(seq, sub uint64, npkts int32) {
	if f := p.f; f.env != nil && len(p.msgs) == 0 {
		if len(f.mailing) == 0 {
			f.env.AtInstantEnd(f.mergeFn)
		}
		f.mailing = append(f.mailing, p)
	}
	p.msgs = append(p.msgs, mailMsg{seq: seq, sub: sub, npkts: npkts})
}

// Merge drains every outbox in global (birth instant, node, send order) —
// the order in which the serial engine executes those sends — claiming
// backplane and RX-lane occupancy for each packet and scheduling the
// deliveries.  The window scheduler runs it between windows; a serial
// fabric runs it at the end of each instant in which a port mailed.
func (f *Fabric) Merge() {
	ports := f.mailing
	if f.env == nil {
		// Partitions cannot list themselves while they run; look here.
		for _, p := range f.ports {
			if len(p.msgs) > 0 {
				ports = append(ports, p)
			}
		}
	}
	for {
		var best *fabPort
		var bseq, bsub uint64
		for _, p := range ports {
			if p.obNext == len(p.msgs) {
				continue
			}
			m := &p.msgs[p.obNext]
			if best == nil || m.seq < bseq || (m.seq == bseq && m.sub < bsub) {
				best, bseq, bsub = p, m.seq, m.sub
			}
		}
		if best == nil {
			break
		}
		m := best.msgs[best.obNext]
		best.obNext++
		f.mergeOne(best, m)
	}
	for _, p := range ports {
		for i := range p.mailPkts {
			p.mailPkts[i] = nil
		}
		p.msgs = p.msgs[:0]
		p.mailPkts = p.mailPkts[:0]
		p.mailSent = p.mailSent[:0]
		p.obNext, p.pkNext = 0, 0
	}
	f.mailing = ports[:0]
}

// mergeOne replays one mailed message: claim receive-side time for each
// fragment, with the occupancy its TX claim used, and schedule the
// delivery (or train) on the destination.
func (f *Fabric) mergeOne(src *fabPort, m mailMsg) {
	end := src.pkNext + int(m.npkts)
	pkts, sents := src.mailPkts[src.pkNext:end], src.mailSent[src.pkNext:end]
	src.pkNext = end
	dst := f.ports[pkts[0].To]
	if len(pkts) == 1 {
		f.scheduleMerged(dst, m, f.rxClaim(pkts[0], sents[0], src.occOf(pkts[0].Size)), f.deliverFn, pkts[0])
		return
	}
	t := dst.pool.train()
	for k, pkt := range pkts {
		t.pkts = append(t.pkts, pkt)
		t.ats = append(t.ats, f.rxClaim(pkt, sents[k], src.occOf(pkt.Size)))
	}
	f.scheduleMerged(dst, m, t.ats[0], f.trainFn, t)
}

// scheduleMerged schedules fn(arg) at absolute time at on dst: under the
// mailed stamp on a partition, as an ordinary event on the serial engine,
// where the instant-end replay is itself in stamp order.
func (f *Fabric) scheduleMerged(dst *fabPort, m mailMsg, at sim.Time, fn func(any), arg any) {
	if f.env == nil {
		dst.env.ScheduleStamped(at, m.seq, m.sub, fn, arg)
		return
	}
	f.env.ScheduleCall(at-f.env.Now(), fn, arg)
}
