package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/sim"
)

// passInjector delivers every packet once, on time: a fault injector that
// injects nothing, so a run under it differs from a clean run only in
// which code paths the transports take.
type passInjector struct{}

func (passInjector) Deliver(_ *cluster.Packet, at sim.Time) []sim.Time { return []sim.Time{at} }

// exchange runs rounds of a symmetric size-byte exchange between two ranks
// on tr and returns the endpoints.  With late set, each rank sends, sleeps
// until the peer's message has landed and only then posts its receive, so
// every message takes the unexpected path.  Every round's payload differs
// from the last, so a stale recycled byte fails the check.
func exchange(t *testing.T, tr Transport, inj cluster.Injector, size, rounds int, late bool) []mpi.Endpoint {
	t.Helper()
	sys := cluster.NewSystem(2, cluster.PlatformPIII500())
	defer sys.Close()
	if inj != nil {
		sys.Fabric.SetInjector(inj)
	}
	eps := tr.Build(sys)
	finished := 0
	for i, ep := range eps {
		c := mpi.NewComm(sys.Env, i, 2, ep)
		sys.Env.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			peer := 1 - c.Rank()
			send, recv, want := make([]byte, size), make([]byte, size), make([]byte, size)
			rs := make([]*mpi.Request, 2)
			for r := 0; r < rounds; r++ {
				for j := range send {
					send[j] = byte(r + j + c.Rank())
					want[j] = byte(r + j + peer)
				}
				if late {
					rs[1] = c.Isend(p, peer, 1, send)
					p.Sleep(sim.Millisecond)
					rs[0] = c.Irecv(p, peer, 1, recv)
				} else {
					rs[0] = c.Irecv(p, peer, 1, recv)
					rs[1] = c.Isend(p, peer, 1, send)
				}
				c.Waitall(p, rs)
				if st := rs[0].Status(); st.Count != size || !bytes.Equal(recv, want) {
					t.Errorf("rank %d round %d: got %d bytes, payload intact %v", c.Rank(), r, st.Count, bytes.Equal(recv, want))
					return
				}
			}
			finished++
		})
	}
	sys.Env.Run()
	if finished != 2 {
		t.Fatalf("%d of 2 ranks finished", finished)
	}
	return eps
}

// bytesPerRound reports the heap bytes one extra round of run allocates:
// the difference between a short and a long run, so set-up cancels out.
func bytesPerRound(run func(rounds int)) float64 {
	measure := func(rounds int) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(rounds)
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	const short, long = 10, 60
	measure(short) // warm up lazily built runtime state
	return float64(measure(long)-measure(short)) / (long - short)
}

// TestRecvBuffersRecycled pins the receive side's steady state: a GM eager
// exchange and a Portals exchange whose messages arrive before their
// receives are posted land every payload in a recycled buffer.  A round
// moves two messages, so one fresh payload buffer per message would cost
// at least 2*size bytes a round; what remains is per-request bookkeeping.
func TestRecvBuffersRecycled(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
		size int
		late bool
	}{
		{"gm-eager", NewGM(), 12_000, false},
		{"portals-unexpected", NewPortals(), 20_000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := bytesPerRound(func(rounds int) { exchange(t, tc.tr, nil, tc.size, rounds, tc.late) })
			if limit := float64(tc.size) / 4; got > limit {
				t.Errorf("%.0f bytes allocated per round of two %d-byte messages, want < %.0f (no payload buffer per message)", got, tc.size, limit)
			}
		})
	}
}

// TestRecycledBufferShortMessage sends a short message after a long one,
// so the short one lands in the long one's recycled receive buffer.  It
// must complete with its own byte count and payload, and leave the rest
// of the user buffer untouched.
func TestRecycledBufferShortMessage(t *testing.T) {
	const long, short = 12_000, 100
	for _, tr := range []Transport{NewGM(), NewPortals()} {
		t.Run(tr.Name(), func(t *testing.T) {
			sys := cluster.NewSystem(2, cluster.PlatformPIII500())
			defer sys.Close()
			eps := tr.Build(sys)
			c0, c1 := mpi.NewComm(sys.Env, 0, 2, eps[0]), mpi.NewComm(sys.Env, 1, 2, eps[1])
			first := bytes.Repeat([]byte{0xAA}, long)
			second := bytes.Repeat([]byte{0x55}, short)
			var st mpi.Status
			buf := make([]byte, long)
			sys.Env.Spawn("sender", func(p *sim.Proc) {
				c0.Send(p, 1, 1, first)
				c0.Send(p, 1, 2, second)
			})
			sys.Env.Spawn("receiver", func(p *sim.Proc) {
				c1.Recv(p, 0, 1, make([]byte, long))
				p.Sleep(sim.Millisecond) // the short message arrives unexpected
				st = c1.Recv(p, 0, 2, buf)
			})
			sys.Env.Run()
			if st.Count != short {
				t.Fatalf("count = %d, want %d", st.Count, short)
			}
			if !bytes.Equal(buf[:short], second) {
				t.Errorf("payload = % x..., want %x", buf[:4], second[0])
			}
			if !bytes.Equal(buf[short:], make([]byte, long-short)) {
				t.Error("bytes past the message's end were written")
			}
		})
	}
}

// TestNoRecyclingUnderFaultInjection checks that an attached injector
// switches buffer recycling off: duplicated or delayed deliveries could
// otherwise write into a buffer that already holds another message.
func TestNoRecyclingUnderFaultInjection(t *testing.T) {
	for _, tc := range []struct {
		tr   Transport
		late bool
	}{{NewGM(), false}, {NewPortals(), true}} {
		t.Run(tc.tr.Name(), func(t *testing.T) {
			for i, ep := range exchange(t, tc.tr, passInjector{}, 12_000, 5, tc.late) {
				var pooled int
				switch ep := ep.(type) {
				case *gmEndpoint:
					pooled = len(ep.bufFree)
				case *portalsEndpoint:
					pooled = len(ep.bufFree)
				}
				if pooled != 0 {
					t.Errorf("rank %d pooled %d buffers under fault injection", i, pooled)
				}
			}
		})
	}
}
