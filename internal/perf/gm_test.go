package perf

import (
	"runtime"
	"testing"

	"comb/internal/platform"
	"comb/internal/sim"
)

// gmPeriod is the GM rig's message spacing: long enough for a 64 KB
// rendezvous message each way, RTS, CTS and data, to land well inside
// one period.
const gmPeriod = 5 * sim.Millisecond

// gmRig is two GM nodes on the reference platform.  Every gmPeriod each
// node sends one length-only message of size bytes to the other and
// waits for it, while a receiver process keeps a receive posted, so
// every period runs the same exchange on warm endpoints: below GM's
// 16 KB eager threshold the eager path, above it the rendezvous path.
// step advances the rig by one period, one message each way.
func gmRig(tb testing.TB, size int) (in *platform.Instance, step func()) {
	tb.Helper()
	in, err := platform.New(platform.Config{Transport: "gm"})
	if err != nil {
		tb.Fatal(err)
	}
	env := in.Sys.Env
	for rank, c := range in.Comms {
		c, peer := c, 1-rank
		env.Spawn("sender", func(p *sim.Proc) {
			for k := sim.Time(1); ; k++ {
				c.Wait(p, c.IsendLen(p, peer, 0, size))
				p.Sleep(k*gmPeriod - p.Now())
			}
		})
		env.Spawn("receiver", func(p *sim.Proc) {
			for {
				c.Wait(p, c.IrecvLen(p, peer, 0, size))
			}
		})
	}
	// Periods end half-way between messages, where nothing is in flight.
	end := gmPeriod / 2
	step = func() {
		env.RunUntil(end)
		end += gmPeriod
	}
	for i := 0; i < 8; i++ {
		step()
	}
	return in, step
}

// BenchmarkGMEagerMessage measures one 1 KB GM message on the eager
// path, send to receive completion, in a steady exchange both ways.  It
// reports the allocations and events per message.
func BenchmarkGMEagerMessage(b *testing.B) { benchGM(b, 1<<10) }

// BenchmarkGMRendezvousMessage is BenchmarkGMEagerMessage for a 64 KB
// message, which takes the rendezvous path: RTS, CTS, then the data.
func BenchmarkGMRendezvousMessage(b *testing.B) { benchGM(b, 64<<10) }

// benchGM runs the GM rig for b.N periods, two messages each.
func benchGM(b *testing.B, size int) {
	in, step := gmRig(b, size)
	defer in.Close()
	env := in.Sys.Env
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steps0 := env.Steps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	msgs := float64(2 * b.N)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/msgs, "allocs/msg")
	b.ReportMetric(float64(env.Steps()-steps0)/msgs, "events/msg")
}

// gmMsgAllocs is what a warm GM message allocates on each path, measured
// on gmRig (linux/amd64, Go 1.24): its send and receive requests and one
// envelope (the eager message's, or the rendezvous RTS's).  Its waits
// park on the endpoints' activity conditions, the rendezvous path's once
// more each for the RTS and the CTS; a node's sender and receiver share
// its condition, which allocates nothing once warm.
var gmMsgAllocs = []struct {
	name   string
	size   int
	allocs float64
}{
	{"eager", 1 << 10, 3},
	{"rendezvous", 64 << 10, 3},
}

// TestGMMessageAllocs pins each GM path at the allocations per message
// it had when the pin was set, so no change to the GM endpoint can add
// one unnoticed.  A fall is logged; lower the pin with it.
func TestGMMessageAllocs(t *testing.T) {
	for _, pin := range gmMsgAllocs {
		t.Run(pin.name, func(t *testing.T) {
			in, step := gmRig(t, pin.size)
			defer in.Close()
			perMsg := testing.AllocsPerRun(50, step) / 2
			if perMsg > pin.allocs {
				t.Errorf("a warm %d-byte GM message allocates %.1f objects, want at most %.1f", pin.size, perMsg, pin.allocs)
			} else if perMsg < pin.allocs {
				t.Logf("a warm %d-byte GM message allocates %.1f objects, under the %.1f pinned: lower the pin", pin.size, perMsg, pin.allocs)
			}
		})
	}
}
