package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/obs"
	"comb/internal/sim"
)

// passInjector delivers every packet once, on time: a fault injector that
// injects nothing, so a run under it differs from a clean run only in
// which code paths the transports take.
type passInjector struct{}

func (passInjector) Deliver(_ *cluster.Packet, at sim.Time) []sim.Time { return []sim.Time{at} }

// exchangeOpts describes one run of exchange.
type exchangeOpts struct {
	inj    cluster.Injector // nil for a clean fabric
	size   int
	rounds int
	// late makes each rank send, sleep until the peer's message has
	// landed, probe for it (which gives a library-driven transport the
	// progress call that moves it to the unexpected queue) and only then
	// post its receive, so every message takes the unexpected path.
	late bool
	// lenOnly sends and receives length-only messages instead of bytes.
	lenOnly bool
	// spans, when set, receives one span per completed request: its post
	// and completion instants and its byte count.
	spans *obs.Collector
}

// exchange runs rounds of a symmetric size-byte exchange between two ranks
// on tr and returns the endpoints.  Every round's payload differs from the
// last, so a stale byte fails the check; a length-only round checks the
// receive's status alone.
func exchange(t *testing.T, tr Transport, o exchangeOpts) []mpi.Endpoint {
	t.Helper()
	sys := cluster.NewSystem(2, cluster.PlatformPIII500())
	defer sys.Close()
	if o.inj != nil {
		sys.Fabric.SetInjector(o.inj)
	}
	eps := tr.Build(sys)
	var meter *mpi.Meter
	if o.spans != nil {
		meter = &mpi.Meter{Spans: o.spans}
	}
	finished := 0
	for i, ep := range eps {
		c := mpi.NewComm(sys.Env, i, 2, ep)
		c.SetMeter(meter)
		sys.Env.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			peer := 1 - c.Rank()
			send, recv, want := make([]byte, o.size), make([]byte, o.size), make([]byte, o.size)
			postRecv := func() *mpi.Request {
				if o.lenOnly {
					return c.IrecvLen(p, peer, 1, o.size)
				}
				return c.Irecv(p, peer, 1, recv)
			}
			postSend := func() *mpi.Request {
				if o.lenOnly {
					return c.IsendLen(p, peer, 1, o.size)
				}
				return c.Isend(p, peer, 1, send)
			}
			rs := make([]*mpi.Request, 2)
			for r := 0; r < o.rounds; r++ {
				for j := range send {
					send[j] = byte(r + j + c.Rank())
					want[j] = byte(r + j + peer)
				}
				if o.late {
					rs[1] = postSend()
					p.Sleep(20 * sim.Millisecond)
					if _, ok := c.Iprobe(p, peer, 1); !ok {
						t.Errorf("rank %d round %d: the peer's message is not pending before the receive", c.Rank(), r)
						return
					}
					rs[0] = postRecv()
				} else {
					rs[0] = postRecv()
					rs[1] = postSend()
				}
				c.Waitall(p, rs)
				st := rs[0].Status()
				intact := o.lenOnly || bytes.Equal(recv, want)
				if st != (mpi.Status{Source: peer, Tag: 1, Count: o.size}) || !intact {
					t.Errorf("rank %d round %d: status %+v, payload intact %v", c.Rank(), r, st, intact)
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

// TestRecvBuffersRecycled pins the steady state of a length-only
// exchange: no transport allocates a payload buffer for it, on time or
// late (the unexpected path).  A round moves two messages, so one fresh
// payload buffer per message would cost at least 2*size bytes a round;
// what remains is per-request bookkeeping.  Messages with bytes get fresh
// buffers; only control messages and content tests carry bytes.
func TestRecvBuffersRecycled(t *testing.T) {
	type recycleCase struct {
		name string
		tr   Transport
		o    exchangeOpts
	}
	var cases []recycleCase
	for _, name := range Names() {
		tr, _ := ByName(name)
		cases = append(cases,
			recycleCase{name + "-length-only", tr, exchangeOpts{size: 100_000, lenOnly: true}},
			recycleCase{name + "-length-only-unexpected", tr, exchangeOpts{size: 100_000, lenOnly: true, late: true}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := bytesPerRound(func(rounds int) {
				o := tc.o
				o.rounds = rounds
				exchange(t, tc.tr, o)
			})
			if limit := float64(tc.o.size) / 4; got > limit {
				t.Errorf("%.0f bytes allocated per round of two %d-byte messages, want < %.0f (no payload buffer per message)", got, tc.o.size, limit)
			} else {
				t.Logf("%.0f bytes allocated per round", got)
			}
		})
	}
}

// TestTCPDedupBytesFlat pins TCP's receive-side deduplication at a cost
// that does not grow with a message's segment count: a round of two
// 1 MB length-only messages (about 685 segments each at the 1460-byte
// MTU) allocates at most 512 bytes more than a round of two 100 KB ones
// (69 segments each).  A set of segment offsets that gains an entry per
// segment costs kilobytes more.
func TestTCPDedupBytesFlat(t *testing.T) {
	perRound := func(size int) float64 {
		return bytesPerRound(func(rounds int) {
			exchange(t, NewTCP(), exchangeOpts{size: size, rounds: rounds, lenOnly: true})
		})
	}
	small, large := perRound(100_000), perRound(1_000_000)
	if large > small+512 {
		t.Errorf("%.0f bytes allocated per round of 1 MB messages, %.0f per round of 100 KB ones; want at most 512 more", large, small)
	} else {
		t.Logf("%.0f bytes per round at 1 MB, %.0f at 100 KB", large, small)
	}
}

// TestRecycledBufferShortMessage sends a short message after a long one,
// the short one arriving unexpected, into a receive buffer sized for the
// long one.  It must complete with its own byte count and payload, and
// leave the rest of the user buffer untouched.
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
// switches record recycling off: a duplicated or delayed delivery could
// otherwise still refer to a fragment or message record that already
// carries another message.  The same exchange on a clean fabric must
// pool records, so the check looks at the freelists that matter.
func TestNoRecyclingUnderFaultInjection(t *testing.T) {
	pooled := func(eps []mpi.Endpoint) (n int) {
		for _, ep := range eps {
			switch ep := ep.(type) {
			case *gmEndpoint:
				n += len(ep.fragFree) + len(ep.accFree)
			case *portalsEndpoint:
				n += len(ep.txFree) + len(ep.fragFree) + len(ep.inbFree)
			}
		}
		return n
	}
	for _, tc := range []struct {
		tr   Transport
		late bool
	}{{NewGM(), false}, {NewPortals(), true}} {
		t.Run(tc.tr.Name(), func(t *testing.T) {
			o := exchangeOpts{size: 12_000, rounds: 5, late: tc.late}
			if n := pooled(exchange(t, tc.tr, o)); n == 0 {
				t.Fatal("a clean exchange pooled no records")
			}
			o.inj = passInjector{}
			if n := pooled(exchange(t, tc.tr, o)); n != 0 {
				t.Errorf("%d records pooled under fault injection", n)
			}
		})
	}
}
