package perf

import (
	"testing"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/platform"
	"comb/internal/sim"
)

// chainPeriod is the packet-chain rig's message spacing: long enough for
// a 64-fragment Portals message each way to land (about 5.3 ms at the
// host copy rate, more with both directions sharing each host) with the
// next receives posted well before the next messages.
const chainPeriod = 10 * sim.Millisecond

// chainRig is two Portals nodes on the reference platform.  Every
// chainPeriod each node posts one length-only message of size bytes to
// the other, as the methods' bulk streams do, whose receive is always
// posted before the first fragment arrives.  Every period runs the same
// events, so a warm rig, whose record pools already hold what a period
// takes, shows each period's steady-state cost.  step advances the rig
// by one period.
//
// A saturated rig sends its messages back to back instead, and each
// receiver keeps two receives posted.  Both hosts' kernel queues then
// never drain, and the interrupt of each arriving packet preempts a
// kernel grant, as at poll interval 10 of figure 8.  step still
// advances by one period, about 250 packets.  sent counts the messages
// whose sends have completed, both ways.
func chainRig(tb testing.TB, size int, saturated bool) (in *platform.Instance, step func(), sent *int) {
	tb.Helper()
	in, err := platform.New(platform.Config{Transport: "portals"})
	if err != nil {
		tb.Fatal(err)
	}
	env := in.Sys.Env
	sent = new(int)
	for rank, c := range in.Comms {
		c, peer := c, 1-rank
		env.Spawn("sender", func(p *sim.Proc) {
			for k := sim.Time(1); ; k++ {
				c.Wait(p, c.IsendLen(p, peer, 0, size))
				*sent++
				if !saturated {
					p.Sleep(k*chainPeriod - p.Now())
				}
			}
		})
		env.Spawn("receiver", func(p *sim.Proc) {
			if !saturated {
				for {
					c.Wait(p, c.IrecvLen(p, peer, 0, size))
				}
			}
			reqs := [2]*mpi.Request{c.IrecvLen(p, peer, 0, size), c.IrecvLen(p, peer, 0, size)}
			for k := 0; ; k ^= 1 {
				c.Wait(p, reqs[k])
				reqs[k] = c.IrecvLen(p, peer, 0, size)
			}
		})
	}
	// Periodic runs' periods end half-way between messages, where
	// nothing is in flight.
	end := chainPeriod / 2
	step = func() {
		env.RunUntil(end)
		end += chainPeriod
	}
	for i := 0; i < 8; i++ {
		step()
	}
	return in, step, sent
}

// chainFrags is the fragment count of the packet-chain messages.
const chainFrags = 64

// BenchmarkPortalsPacketChain measures one packet of a multi-fragment
// Portals message end to end: the transmit driver's per-fragment charge
// and send, the wire, and the receive chain of interrupt, kernel
// processing and copy.  An op is one packet; the per-message MPI
// requests are spread over the message's 64 packets.  Both nodes send,
// so the receive chains contend with the transmit drivers for the CPU as
// they do in a polling run.  Beside events/pkt it reports the event
// queue's work per packet: heap pushes, slot arms and the re-keys among
// them.
func BenchmarkPortalsPacketChain(b *testing.B) { benchChain(b, false) }

// BenchmarkPortalsPacketChainSaturated is BenchmarkPortalsPacketChain on
// the saturated rig: messages back to back, so interrupts preempt kernel
// grants and the cores' completion slots are re-keyed about once a
// packet.
func BenchmarkPortalsPacketChainSaturated(b *testing.B) { benchChain(b, true) }

func benchChain(b *testing.B, saturated bool) {
	in, step, _ := chainRig(b, chainFrags*refMTU, saturated)
	defer in.Close()
	env := in.Sys.Env
	packets := func() int64 { n, _, _ := in.Sys.Fabric.Stats(); return n }
	pkts0, steps0, q0 := packets(), env.Steps(), env.QueueStats()
	b.ReportAllocs()
	b.ResetTimer()
	for packets()-pkts0 < int64(b.N) {
		step()
	}
	b.StopTimer()
	pkts, q := float64(packets()-pkts0), env.QueueStats()
	b.ReportMetric(float64(env.Steps()-steps0)/pkts, "events/pkt")
	b.ReportMetric(float64(q.Pushes-q0.Pushes)/pkts, "pushes/pkt")
	b.ReportMetric(float64(q.Arms-q0.Arms)/pkts, "arms/pkt")
	b.ReportMetric(float64(q.Rekeys-q0.Rekeys)/pkts, "rekeys/pkt")
}

// refMTU is the reference platform's MTU: one full fragment.
var refMTU = cluster.PlatformPIII500().Link.MTU

// TestPortalsPacketChainZeroAllocs pins the per-packet chain: once warm,
// a 64-fragment Portals message allocates exactly what a one-fragment
// message does (its MPI requests and match record), so the 63 extra
// fragments' driver steps, packets, wire transits and receive stages
// allocate nothing.
func TestPortalsPacketChainZeroAllocs(t *testing.T) {
	perMsg := func(size int) float64 {
		in, step, _ := chainRig(t, size, false)
		defer in.Close()
		return testing.AllocsPerRun(50, step)
	}
	one, many := perMsg(refMTU), perMsg(chainFrags*refMTU)
	if many != one {
		t.Errorf("a %d-fragment message allocates %.1f objects, a one-fragment message %.1f: the packet chain allocates %.2f per packet, want 0",
			chainFrags, many, one, (many-one)/(chainFrags-1))
	}
}

// TestPortalsPacketChainSaturatedZeroAllocs pins the chain where
// interrupts preempt kernel grants: once warm, the saturated rig
// allocates no more per message than a periodic one-fragment message
// does (one each way per period), so nothing is allocated per packet,
// preempted or not.  Each step carries about 250 packets and 4 messages:
// one allocation per packet would exceed the bound 16 times over.
func TestPortalsPacketChainSaturatedZeroAllocs(t *testing.T) {
	in, step, _ := chainRig(t, refMTU, false)
	perMsg := testing.AllocsPerRun(50, step) / 2
	in.Close()

	in, step, sent := chainRig(t, chainFrags*refMTU, true)
	defer in.Close()
	pkts0, _, _ := in.Sys.Fabric.Stats()
	rekeys0, sent0 := in.Sys.Env.QueueStats().Rekeys, *sent
	const runs = 100
	perStep := testing.AllocsPerRun(runs, step)
	// AllocsPerRun steps the rig once more, unmeasured, to warm up.
	pkts, _, _ := in.Sys.Fabric.Stats()
	msgs := float64(*sent-sent0) / (runs + 1)
	perPkt := float64(pkts-pkts0) / (runs + 1)
	if rekeys := in.Sys.Env.QueueStats().Rekeys - rekeys0; float64(rekeys) < perPkt*(runs+1)/2 {
		t.Fatalf("%.0f packets re-keyed %d slots: the rig is not saturated", perPkt*(runs+1), rekeys)
	}
	if limit := perMsg * msgs; perStep > limit {
		t.Errorf("a step of %.1f saturated %d-fragment messages allocates %.0f objects, over the %.1f a one-fragment message each would: %.2f per packet, want 0",
			msgs, chainFrags, perStep, limit, (perStep-limit)/perPkt)
	}
}
