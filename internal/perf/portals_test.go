package perf

import (
	"testing"

	"comb/internal/cluster"
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
// posted before the first fragment arrives.  A receiver recycles the
// fragments and message records it consumes into its own pools, so the
// exchange must run both ways for every pool to reach a steady state.
// Every period then runs the same events, and a warm rig shows each
// period's steady-state cost.  step advances the rig by one period.
func chainRig(tb testing.TB, size int) (in *platform.Instance, step func()) {
	tb.Helper()
	in, err := platform.New(platform.Config{Transport: "portals"})
	if err != nil {
		tb.Fatal(err)
	}
	env := in.Sys.Env
	for rank, c := range in.Comms {
		c, peer := c, 1-rank
		env.Spawn("sender", func(p *sim.Proc) {
			for k := sim.Time(1); ; k++ {
				c.Wait(p, c.IsendLen(p, peer, 0, size))
				p.Sleep(k*chainPeriod - p.Now())
			}
		})
		env.Spawn("receiver", func(p *sim.Proc) {
			for {
				c.Wait(p, c.IrecvLen(p, peer, 0, size))
			}
		})
	}
	// Periods end half-way between messages, where nothing is in flight.
	end := chainPeriod / 2
	step = func() {
		env.RunUntil(end)
		end += chainPeriod
	}
	for i := 0; i < 8; i++ {
		step()
	}
	return in, step
}

// chainFrags is the fragment count of the packet-chain messages.
const chainFrags = 64

// BenchmarkPortalsPacketChain measures one packet of a multi-fragment
// Portals message end to end: the transmit driver's per-fragment charge
// and send, the wire, and the receive chain of interrupt, kernel
// processing and copy.  An op is one packet; the per-message MPI
// requests are spread over the message's 64 packets.  Both nodes send,
// so the receive chains contend with the transmit drivers for the CPU as
// they do in a polling run.
func BenchmarkPortalsPacketChain(b *testing.B) {
	in, step := chainRig(b, chainFrags*refMTU)
	defer in.Close()
	pkts0, _, _ := in.Sys.Fabric.Stats()
	steps0 := in.Sys.Env.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; sent += 2 * chainFrags {
		step()
	}
	b.StopTimer()
	pkts, _, _ := in.Sys.Fabric.Stats()
	b.ReportMetric(float64(in.Sys.Env.Steps()-steps0)/float64(pkts-pkts0), "events/pkt")
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
		in, step := chainRig(t, size)
		defer in.Close()
		return testing.AllocsPerRun(50, step)
	}
	one, many := perMsg(refMTU), perMsg(chainFrags*refMTU)
	if many != one {
		t.Errorf("a %d-fragment message allocates %.1f objects, a one-fragment message %.1f: the packet chain allocates %.2f per packet, want 0",
			chainFrags, many, one, (many-one)/(chainFrags-1))
	}
}
