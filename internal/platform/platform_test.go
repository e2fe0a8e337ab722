package platform

import (
	"strings"
	"testing"

	"comb/internal/cluster"
	"comb/internal/faultinject"
	"comb/internal/mpi"
	"comb/internal/sim"
	"comb/internal/transport"
)

func TestNewDefaults(t *testing.T) {
	in, err := New(Config{Transport: "gm"})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if len(in.Comms) != 2 {
		t.Fatalf("default node count = %d, want 2", len(in.Comms))
	}
	for i, c := range in.Comms {
		if c.Rank() != i || c.Size() != 2 {
			t.Fatalf("comm %d misconfigured", i)
		}
	}
	if in.Transport.Name() != "gm" {
		t.Fatalf("transport = %q", in.Transport.Name())
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Transport: "bogus"}); err == nil {
		t.Fatal("unknown transport must fail")
	}
	if _, err := New(Config{Transport: "gm", Nodes: -1}); err == nil {
		t.Fatal("negative node count must fail")
	}
}

func TestNewCustomTransportAndPlatform(t *testing.T) {
	g := transport.NewGM()
	g.Config.EagerThreshold = 1 // everything rendezvous
	p := cluster.PlatformPIII500()
	p.IterCost = 4 * sim.Nanosecond
	in, err := New(Config{Custom: g, Platform: &p, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if in.Sys.P.IterCost != 4 {
		t.Fatal("platform override lost")
	}
	if len(in.Sys.Nodes) != 3 {
		t.Fatal("node count override lost")
	}
}

func TestRunReportsDeadlock(t *testing.T) {
	in, err := New(Config{Transport: "ideal"})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	err = in.Run(func(p *sim.Proc, c *mpi.Comm) {
		c.Recv(p, 1-c.Rank(), 0, make([]byte, 1)) // both receive: hang
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock report", err)
	}
}

func TestLaunchRoundTrip(t *testing.T) {
	var sum int
	err := Launch(Config{Transport: "ideal"}, func(p *sim.Proc, c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, 1, []byte{41})
		} else {
			b := make([]byte, 1)
			c.Recv(p, 0, 1, b)
			sum = int(b[0]) + 1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("sum = %d", sum)
	}
}

// TestParallelEngineChoice: the window engine runs exactly when it is
// requested (SimWorkers > 1), the fabric could be windowed
// (cluster.Windowable) and the transport injects no faults.
func TestParallelEngineChoice(t *testing.T) {
	link := func(edit func(*cluster.LinkConfig)) cluster.Platform {
		p := cluster.PlatformPIII500()
		edit(&p.Link)
		return p
	}
	platforms := []struct {
		name string
		p    cluster.Platform
	}{
		{"reference", cluster.PlatformPIII500()},
		{"jitter", link(func(l *cluster.LinkConfig) { l.Jitter = 0.2 })},
		{"loss", link(func(l *cluster.LinkConfig) { l.LossRate = 0.01 })},
		{"zero lookahead", link(func(l *cluster.LinkConfig) { l.Latency, l.PerPacket = 0, 0 })},
	}
	engaged := 0
	for _, pc := range platforms {
		for _, nodes := range []int{2, 3, 8} {
			for _, workers := range []int{0, 1, 4} {
				for _, faults := range []bool{false, true} {
					tr := transport.Transport(transport.NewGM())
					if faults {
						tr = faultinject.Wrap(tr, faultinject.Spec{DelayProb: 0.1})
					}
					p := pc.p
					in, err := New(Config{Custom: tr, Platform: &p, Nodes: nodes, SimWorkers: workers})
					if err != nil {
						t.Fatal(err)
					}
					want := workers > 1 && cluster.Windowable(nodes, p.Link) && !faults
					if in.Parallel() != want {
						t.Errorf("%s, %d nodes, %d workers, faults=%v: Parallel() = %v, want %v",
							pc.name, nodes, workers, faults, in.Parallel(), want)
					}
					if in.Parallel() {
						engaged++
					}
					in.Close()
				}
			}
		}
	}
	// Only the reference platform at 3 and 8 nodes, with 4 workers and no
	// faults, qualifies.
	if engaged != 2 {
		t.Errorf("parallel engine chosen %d times, want 2", engaged)
	}
}
