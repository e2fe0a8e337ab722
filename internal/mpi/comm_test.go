package mpi_test

import (
	"bytes"
	"fmt"
	"testing"

	"comb/internal/mpi"
	"comb/internal/platform"
	"comb/internal/sim"
	"comb/internal/transport"
)

// forEachTransport runs a subtest per registered transport.
func forEachTransport(t *testing.T, fn func(t *testing.T, name string)) {
	t.Helper()
	for _, name := range transport.Names() {
		name := name
		t.Run(name, func(t *testing.T) { fn(t, name) })
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestSendRecvIntegrity(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string) {
		// Cover eager, threshold-boundary and rendezvous sizes.
		for _, n := range []int{0, 1, 1000, 16383, 16384, 16385, 100_000, 300_000} {
			n := n
			t.Run(fmt.Sprintf("%dB", n), func(t *testing.T) {
				want := pattern(n, 3)
				var got []byte
				err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
					if c.Rank() == 0 {
						c.Send(p, 1, 5, want)
					} else {
						buf := make([]byte, n)
						st := c.Recv(p, 0, 5, buf)
						if st.Count != n || st.Source != 0 || st.Tag != 5 {
							t.Errorf("status = %+v, want count=%d src=0 tag=5", st, n)
						}
						got = buf
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("payload corrupted (len got %d want %d)", len(got), len(want))
				}
			})
		}
	})
}

func TestUnexpectedMessageIntegrity(t *testing.T) {
	// Send completes (or at least lands) before the receive is posted.
	forEachTransport(t, func(t *testing.T, name string) {
		for _, n := range []int{100, 100_000} {
			n := n
			t.Run(fmt.Sprintf("%dB", n), func(t *testing.T) {
				want := pattern(n, 9)
				var got []byte
				err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
					if c.Rank() == 0 {
						c.Send(p, 1, 1, want)
					} else {
						// Let the message arrive (or its RTS) well before posting.
						p.Sleep(50 * sim.Millisecond)
						buf := make([]byte, n)
						c.Recv(p, 0, 1, buf)
						got = buf
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("late-posted receive got corrupted payload")
				}
			})
		}
	})
}

func TestMessageOrderingSameEnvelope(t *testing.T) {
	// MPI non-overtaking: same (src, dst, tag) messages arrive in order.
	forEachTransport(t, func(t *testing.T, name string) {
		const k = 8
		var got [][]byte
		err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
			if c.Rank() == 0 {
				var reqs []*mpi.Request
				for i := 0; i < k; i++ {
					reqs = append(reqs, c.Isend(p, 1, 2, []byte{byte(i)}))
				}
				c.Waitall(p, reqs)
			} else {
				for i := 0; i < k; i++ {
					buf := make([]byte, 1)
					c.Recv(p, 0, 2, buf)
					got = append(got, buf)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			if b[0] != byte(i) {
				t.Fatalf("message %d carried %d: overtaking detected", i, b[0])
			}
		}
	})
}

func TestWildcardReceive(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string) {
		var st mpi.Status
		err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
			if c.Rank() == 0 {
				c.Send(p, 1, 17, []byte("hi"))
			} else {
				buf := make([]byte, 2)
				st = c.Recv(p, mpi.AnySource, mpi.AnyTag, buf)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Source != 0 || st.Tag != 17 || st.Count != 2 {
			t.Fatalf("wildcard status = %+v", st)
		}
	})
}

func TestBidirectionalExchange(t *testing.T) {
	// The COMB inner pattern: both ranks post recv+send, then wait both.
	forEachTransport(t, func(t *testing.T, name string) {
		const n = 100_000
		ok := [2]bool{}
		err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
			me, peer := c.Rank(), 1-c.Rank()
			buf := make([]byte, n)
			rr := c.Irecv(p, peer, 3, buf)
			sr := c.Isend(p, peer, 3, pattern(n, byte(me)))
			c.Waitall(p, []*mpi.Request{rr, sr})
			ok[me] = bytes.Equal(buf, pattern(n, byte(peer)))
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ok[0] || !ok[1] {
			t.Fatal("bidirectional payloads corrupted")
		}
	})
}

func TestTestReturnsFalseThenTrue(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string) {
		err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
			if c.Rank() == 0 {
				p.Sleep(10 * sim.Millisecond)
				c.Send(p, 1, 4, pattern(50_000, 1))
			} else {
				buf := make([]byte, 50_000)
				r := c.Irecv(p, 0, 4, buf)
				if c.Test(p, r) {
					t.Error("Test true before sender even started")
				}
				c.Wait(p, r)
				if !c.Test(p, r) {
					t.Error("Test false after Wait")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string) {
		var after [2]sim.Time
		err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
			if c.Rank() == 0 {
				p.Sleep(30 * sim.Millisecond)
			}
			c.Barrier(p)
			after[c.Rank()] = p.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		if after[1] < 30*sim.Millisecond {
			t.Fatalf("rank 1 left barrier at %v, before rank 0 entered it", after[1])
		}
	})
}

func TestBarrierRepeated(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string) {
		err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
			for i := 0; i < 5; i++ {
				c.Barrier(p)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestManyRanksRing(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string) {
		const n = 4
		var sum [n]int
		err := platform.Launch(platform.Config{Transport: name, Nodes: n}, func(p *sim.Proc, c *mpi.Comm) {
			me := c.Rank()
			next, prev := (me+1)%n, (me+n-1)%n
			buf := make([]byte, 1)
			rr := c.Irecv(p, prev, 0, buf)
			c.Send(p, next, 0, []byte{byte(me)})
			c.Wait(p, rr)
			sum[me] = int(buf[0])
		})
		if err != nil {
			t.Fatal(err)
		}
		for me := 0; me < n; me++ {
			if sum[me] != (me+n-1)%n {
				t.Fatalf("rank %d got token %d", me, sum[me])
			}
		}
	})
}

func TestInvalidRankPanics(t *testing.T) {
	err := platform.Launch(platform.Config{Transport: "ideal"}, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range rank")
			}
			// Swallow the panic so the harness sees a clean finish.
		}()
		c.Isend(p, 7, 0, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReservedTagPanics(t *testing.T) {
	err := platform.Launch(platform.Config{Transport: "ideal"}, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for reserved tag")
			}
		}()
		c.Isend(p, 1, mpi.TagUpper, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Both ranks Recv first: the harness must report the hang, not spin.
	err := platform.Launch(platform.Config{Transport: "ideal"}, func(p *sim.Proc, c *mpi.Comm) {
		buf := make([]byte, 1)
		c.Recv(p, 1-c.Rank(), 0, buf)
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestMeterConservesLengthOnly mixes length-only and byte messages, both
// ways and with the receive posted late, and checks the meter's
// conservation totals: every post completes, and the bytes sent, read
// from each request's length, equal the bytes received.
func TestMeterConservesLengthOnly(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string) {
		in, err := platform.New(platform.Config{Transport: name})
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		var m mpi.Meter
		for _, c := range in.Comms {
			c.SetMeter(&m)
		}
		const small, large = 1_000, 100_000
		err = in.Run(func(p *sim.Proc, c *mpi.Comm) {
			peer := 1 - c.Rank()
			rs := []*mpi.Request{
				c.IrecvLen(p, peer, 1, large),
				c.Irecv(p, peer, 2, make([]byte, small)),
				c.IsendLen(p, peer, 1, large),
				c.Isend(p, peer, 2, pattern(small, 1)),
				c.IsendLen(p, peer, 3, small),
			}
			p.Sleep(50 * sim.Millisecond) // the tag-3 message arrives unexpected
			rs = append(rs, c.IrecvLen(p, peer, 3, small))
			c.Waitall(p, rs)
		})
		if err != nil {
			t.Fatal(err)
		}
		const perRank = large + 2*small
		if m.PostedSends != 6 || m.DoneSends != 6 || m.PostedRecvs != 6 || m.DoneRecvs != 6 {
			t.Errorf("meter counts %+v, want 6 posted and done each way", m)
		}
		if m.SentBytes != 2*perRank || m.RecvBytes != 2*perRank {
			t.Errorf("sent %d bytes, received %d, want %d both", m.SentBytes, m.RecvBytes, 2*perRank)
		}
	})
}
