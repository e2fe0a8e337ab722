package transport_test

import (
	"bytes"
	"reflect"
	"testing"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/platform"
	"comb/internal/sim"
)

// ringOutcome is what a ring exchange must leave identical on both
// engines.
type ringOutcome struct {
	done  []sim.Time // per rank, when its last exchange completed
	ok    []bool     // per rank, whether every payload arrived intact
	usage [][3]sim.Time
}

// ringExchange runs three rounds of a ring exchange on 8 ranks, each
// rank sending a multi-fragment message to its right neighbour while
// receiving from its left, on the serial engine (workers 0) or the
// window engine.
func ringExchange(t *testing.T, name string, workers int) ringOutcome {
	t.Helper()
	const nodes, size = 8, 5*4096 + 100
	in, err := platform.New(platform.Config{Transport: name, Nodes: nodes, SimWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if workers > 1 && !in.Parallel() {
		t.Fatalf("%s: the window engine is not engaged at %d nodes", name, nodes)
	}
	out := ringOutcome{done: make([]sim.Time, nodes), ok: make([]bool, nodes)}
	err = in.Run(func(p *sim.Proc, c *mpi.Comm) {
		r, n := c.Rank(), c.Size()
		left, right := (r+n-1)%n, (r+1)%n
		buf := make([]byte, size)
		ok := true
		for round := 0; round < 3; round++ {
			rr := c.Irecv(p, left, round, buf)
			sr := c.Isend(p, right, round, bytes.Repeat([]byte{byte(r + round)}, size))
			c.Waitall(p, []*mpi.Request{rr, sr})
			ok = ok && bytes.Equal(buf, bytes.Repeat([]byte{byte(left + round)}, size))
		}
		out.done[r], out.ok[r] = p.Now(), ok
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range in.Sys.Nodes {
		out.usage = append(out.usage, [3]sim.Time{nd.CPU.Usage(cluster.User), nd.CPU.Usage(cluster.Kernel), nd.CPU.Usage(cluster.Interrupt)})
	}
	return out
}

// TestTxDriversOnWindowWorkers runs the Portals and TCP transmit drivers
// on the window engine, where their callback chains run on the window
// workers, and requires the serial engine's outcome: completion
// instants, intact payloads and CPU time per node.
func TestTxDriversOnWindowWorkers(t *testing.T) {
	for _, name := range []string{"portals", "tcp"} {
		t.Run(name, func(t *testing.T) {
			serial, windowed := ringExchange(t, name, 0), ringExchange(t, name, 4)
			for r, ok := range serial.ok {
				if !ok {
					t.Errorf("rank %d received a corrupted payload", r)
				}
			}
			if !reflect.DeepEqual(serial, windowed) {
				t.Errorf("window engine diverges from serial:\n serial   %+v\n windowed %+v", serial, windowed)
			}
		})
	}
}
