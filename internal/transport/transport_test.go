package transport_test

import (
	"testing"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/platform"
	"comb/internal/sim"
	"comb/internal/transport"
)

// measureWait runs the PWW-style probe at the heart of COMB's offload
// detection: both ranks post a 100 KB exchange, stay out of the MPI
// library for `idle` of virtual time, then wait.  It returns rank 0's time
// spent inside Waitall.
func measureWait(t *testing.T, name string, idle sim.Time) sim.Time {
	t.Helper()
	const n = 100_000
	var waited sim.Time
	err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
		peer := 1 - c.Rank()
		buf := make([]byte, n)
		rr := c.Irecv(p, peer, 1, buf)
		sr := c.Isend(p, peer, 1, make([]byte, n))
		if c.Rank() == 0 {
			p.Sleep(idle) // "work" with no MPI calls
			t0 := p.Now()
			c.Waitall(p, []*mpi.Request{rr, sr})
			waited = p.Now() - t0
		} else {
			c.Waitall(p, []*mpi.Request{rr, sr})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return waited
}

func TestApplicationOffloadSignature(t *testing.T) {
	// With a long no-MPI-call gap after posting, an offloaded transport
	// finishes the transfer during the gap (tiny wait), while a
	// library-progressed transport has barely started it (large wait).
	const idle = 100 * sim.Millisecond
	gm := measureWait(t, "gm", idle)
	ptl := measureWait(t, "portals", idle)
	ideal := measureWait(t, "ideal", idle)
	if gm < sim.Millisecond {
		t.Errorf("gm wait = %v; GM must NOT progress rendezvous during the gap", gm)
	}
	if ptl > sim.Millisecond {
		t.Errorf("portals wait = %v; Portals must complete during the gap", ptl)
	}
	if ideal > sim.Millisecond {
		t.Errorf("ideal wait = %v; ideal must complete during the gap", ideal)
	}
}

// streamBandwidth measures a one-way pipelined stream of msgs messages of
// size bytes, returning MB/s observed at the receiver.
func streamBandwidth(t *testing.T, name string, size, msgs int) float64 {
	t.Helper()
	var elapsed sim.Time
	err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			var rs []*mpi.Request
			for i := 0; i < msgs; i++ {
				rs = append(rs, c.Isend(p, 1, 1, make([]byte, size)))
			}
			c.Waitall(p, rs)
		} else {
			var rs []*mpi.Request
			for i := 0; i < msgs; i++ {
				rs = append(rs, c.Irecv(p, 0, 1, make([]byte, size)))
			}
			t0 := p.Now()
			c.Waitall(p, rs)
			elapsed = p.Now() - t0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(size) * float64(msgs) / elapsed.Seconds() / cluster.MB
}

func TestGMStreamBandwidthNearWireLimit(t *testing.T) {
	bw := streamBandwidth(t, "gm", 300_000, 30)
	if bw < 80 || bw > 92 {
		t.Fatalf("GM one-way stream = %.1f MB/s, want ~88 (calibration)", bw)
	}
}

func TestIdealStreamBandwidthNearWireLimit(t *testing.T) {
	bw := streamBandwidth(t, "ideal", 300_000, 30)
	if bw < 80 || bw > 92 {
		t.Fatalf("ideal one-way stream = %.1f MB/s, want ~88", bw)
	}
}

func TestPortalsStreamSlowerThanGM(t *testing.T) {
	gm := streamBandwidth(t, "gm", 300_000, 30)
	ptl := streamBandwidth(t, "portals", 300_000, 30)
	if ptl > gm {
		t.Fatalf("portals %.1f MB/s faster than gm %.1f MB/s", ptl, gm)
	}
}

// exchangeBandwidth measures sustained simultaneous bidirectional traffic
// (the polling-method regime), returning per-direction MB/s.
func exchangeBandwidth(t *testing.T, name string, size, rounds int) float64 {
	t.Helper()
	var elapsed sim.Time
	err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
		peer := 1 - c.Rank()
		t0 := p.Now()
		for i := 0; i < rounds; i++ {
			rr := c.Irecv(p, peer, 1, make([]byte, size))
			sr := c.Isend(p, peer, 1, make([]byte, size))
			c.Waitall(p, []*mpi.Request{rr, sr})
		}
		if c.Rank() == 0 {
			elapsed = p.Now() - t0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(size) * float64(rounds) / elapsed.Seconds() / cluster.MB
}

func TestPortalsBidirectionalCopyLimited(t *testing.T) {
	bw := exchangeBandwidth(t, "portals", 300_000, 20)
	// The paper's Portals peaks near 50 MB/s: host copies in both
	// directions plus per-packet interrupts saturate the CPU.
	if bw < 38 || bw > 62 {
		t.Fatalf("portals bidirectional = %.1f MB/s, want ~50", bw)
	}
}

func TestGMBidirectionalNearWire(t *testing.T) {
	bw := exchangeBandwidth(t, "gm", 300_000, 20)
	if bw < 70 {
		t.Fatalf("gm bidirectional = %.1f MB/s, want near wire limit", bw)
	}
}

// postCost measures the virtual time one Isend call takes.
func postCost(t *testing.T, name string, size int) sim.Time {
	t.Helper()
	var cost sim.Time
	err := platform.Launch(platform.Config{Transport: name}, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			t0 := p.Now()
			r := c.Isend(p, 1, 1, make([]byte, size))
			cost = p.Now() - t0
			c.Wait(p, r)
		} else {
			c.Recv(p, 0, 1, make([]byte, size))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return cost
}

func TestGMEagerVsRendezvousSendCost(t *testing.T) {
	small := postCost(t, "gm", 10_000)  // eager: ~45 us
	large := postCost(t, "gm", 100_000) // rendezvous: ~5 us
	if small < 40*sim.Microsecond || small > 50*sim.Microsecond {
		t.Errorf("eager Isend cost = %v, want ~45us", small)
	}
	if large < 4*sim.Microsecond || large > 10*sim.Microsecond {
		t.Errorf("rendezvous Isend cost = %v, want ~5us", large)
	}
	if small < large {
		t.Error("paper: small-message sends must cost MORE than large (protocol switch)")
	}
}

func TestPortalsSendCostScalesWithSize(t *testing.T) {
	small := postCost(t, "portals", 10_000)
	large := postCost(t, "portals", 100_000)
	// Kernel copy at ~120 MB/s dominates: 10 KB ~ 88us, 100 KB ~ 838us.
	if small < 60*sim.Microsecond || small > 150*sim.Microsecond {
		t.Errorf("portals 10KB Isend = %v, want ~88us", small)
	}
	if large < 700*sim.Microsecond || large > 1100*sim.Microsecond {
		t.Errorf("portals 100KB Isend = %v, want ~840us", large)
	}
}

// workDilation measures how much a pure CPU work loop stretches while the
// peer streams messages at the node (the Fig 12 / Fig 13 mechanism).
// Receives are pre-posted; the worker then computes with no MPI calls.
func workDilation(t *testing.T, name string) float64 {
	t.Helper()
	const (
		size = 100_000
		msgs = 40
	)
	var ratio float64
	in, err := platform.New(platform.Config{Transport: name})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	err = in.Run(func(p *sim.Proc, c *mpi.Comm) {
		const iters = 10_000_000 // 20 ms of work
		if c.Rank() == 0 {
			var rs []*mpi.Request
			for i := 0; i < msgs; i++ {
				rs = append(rs, c.Irecv(p, 1, 1, make([]byte, size)))
			}
			c.Barrier(p)
			t0 := p.Now()
			// Pure work, no MPI calls: any dilation is communication
			// overhead stolen by interrupts/kernel work.
			in.Sys.Nodes[0].Work(p, iters)
			elapsed := p.Now() - t0
			want := 20 * sim.Millisecond
			ratio = float64(elapsed) / float64(want)
			c.Waitall(p, rs)
		} else {
			c.Barrier(p)
			var rs []*mpi.Request
			for i := 0; i < msgs; i++ {
				rs = append(rs, c.Isend(p, 0, 1, make([]byte, size)))
			}
			c.Waitall(p, rs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return ratio
}

func TestPortalsStealsCPUDuringWork(t *testing.T) {
	r := workDilation(t, "portals")
	if r < 1.2 {
		t.Fatalf("portals work dilation = %.2fx, want substantial overhead", r)
	}
}

func TestGMStealsNoCPUDuringWork(t *testing.T) {
	r := workDilation(t, "gm")
	if r > 1.01 {
		t.Fatalf("gm work dilation = %.3fx, want ~1.0 (no interrupts, no copies)", r)
	}
}

func TestRegistry(t *testing.T) {
	names := transport.Names()
	want := []string{"emp", "gm", "ideal", "portals", "tcp"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if _, err := transport.ByName("nosuch"); err == nil {
		t.Fatal("ByName must reject unknown transports")
	}
	tr, err := transport.ByName("gm")
	if err != nil || tr.Name() != "gm" {
		t.Fatalf("ByName(gm) = %v, %v", tr, err)
	}
}
