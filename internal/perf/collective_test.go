package perf

import (
	"runtime"
	"testing"

	"comb/internal/platform"
	"comb/internal/sim"
)

// collPeriod is the collective rig's spacing: long enough for an 8-rank
// 64 KB all-reduce on GM, rendezvous at every hop, to finish well inside
// one period.
const collPeriod = 20 * sim.Millisecond

// collRig is eight GM ranks on the reference platform.  Every collPeriod
// each rank starts a length-only Iallreduce of size bytes and waits for
// it, so every period runs the same collective on warm endpoints.  step
// advances the rig by one period, one collective on every rank.
func collRig(tb testing.TB, size int) (in *platform.Instance, step func()) {
	tb.Helper()
	in, err := platform.New(platform.Config{Transport: "gm", Nodes: 8})
	if err != nil {
		tb.Fatal(err)
	}
	env := in.Sys.Env
	for _, c := range in.Comms {
		c := c
		env.Spawn("rank", func(p *sim.Proc) {
			for k := sim.Time(1); ; k++ {
				c.CollWait(p, c.IallreduceLen(p, size))
				p.Sleep(k*collPeriod - p.Now())
			}
		})
	}
	// Periods end half-way between collectives, where nothing is in
	// flight.
	end := collPeriod / 2
	step = func() {
		env.RunUntil(end)
		end += collPeriod
	}
	for i := 0; i < 8; i++ {
		step()
	}
	return in, step
}

// BenchmarkIallreduceLen measures one length-only 8-rank all-reduce of
// 16 KB on GM, initiation to completion on every rank: 14 messages
// through the binomial reduce and broadcast trees.
func BenchmarkIallreduceLen(b *testing.B) {
	in, step := collRig(b, 16<<10)
	defer in.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestIallreduceLenBytesFlat pins the collective path: a warm length-only
// all-reduce allocates the same heap bytes per call whether it moves 1 KB
// or 64 KB, up to the cost of GM's rendezvous protocol, which the 64 KB
// messages take and the 1 KB ones do not: an RTS envelope per message
// and the events of the extra progress rounds, 2,568 B a call on
// linux/amd64 with Go 1.24.  The bound is that plus room for runtime
// jitter (up to 160 B seen).  One buffer of the payload's size anywhere
// in a call, a contribution buffer, a send copy or a landing buffer,
// would add 64 KB; one more envelope per rendezvous message (14 a call)
// would add 896 B.
func TestIallreduceLenBytesFlat(t *testing.T) {
	perCall := func(size int) float64 {
		in, step := collRig(t, size)
		defer in.Close()
		const calls = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / calls
	}
	const small, large = 1 << 10, 64 << 10
	got1, got64 := perCall(small), perCall(large)
	if limit := 2800.0; got64-got1 > limit {
		t.Errorf("a 64 KB call allocates %.0f bytes, a 1 KB call %.0f: %.0f more, want < %.0f (no buffer per call that grows with the length)",
			got64, got1, got64-got1, limit)
	} else {
		t.Logf("%.0f bytes per 1 KB call, %.0f per 64 KB call", got1, got64)
	}
}
