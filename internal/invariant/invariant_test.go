package invariant_test

import (
	"fmt"
	"strings"
	"testing"

	"comb/internal/core"
	"comb/internal/invariant"
	"comb/internal/machine"
	"comb/internal/mpi"
	"comb/internal/platform"
	"comb/internal/sim"
	"comb/internal/transport"
)

// pollCfg is a small, eager-only polling configuration (GM's eager
// threshold is 16 KB) so the broken double below cannot deadlock in the
// rendezvous handshake.
var pollCfg = core.PollingConfig{
	Config:       core.Config{MsgSize: 4096},
	PollInterval: 10_000,
	WorkTotal:    100_000,
	QueueDepth:   2,
}

// runPolling builds a two-node system on tr with a checker attached,
// runs one polling measurement, and returns the checker.
func runPolling(t *testing.T, tr transport.Transport) (*invariant.Checker, *core.PollingResult) {
	t.Helper()
	in, err := platform.New(platform.Config{Custom: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	chk := invariant.Attach(in.Sys, in.Comms, invariant.Options{})
	var res *core.PollingResult
	err = in.Run(func(p *sim.Proc, c *mpi.Comm) {
		m := machine.NewSim(p, c, in.Sys.Nodes[c.Rank()])
		r, err := core.RunPolling(m, pollCfg)
		if err != nil {
			t.Errorf("run: %v", err)
			return
		}
		if r != nil {
			res = r
		}
	})
	if err != nil {
		t.Fatalf("simulation: %v", err)
	}
	chk.Finish()
	chk.CheckPolling(res)
	return chk, res
}

func TestCleanRunHoldsInvariants(t *testing.T) {
	for _, sys := range []string{"gm", "tcp", "emp", "portals", "ideal"} {
		tr, err := transport.ByName(sys)
		if err != nil {
			t.Fatal(err)
		}
		chk, _ := runPolling(t, tr)
		if err := chk.Err(); err != nil {
			t.Errorf("%s: clean run broke invariants: %v", sys, err)
		}
		m := chk.Meter()
		if m.PostedSends == 0 || m.DoneRecvs == 0 {
			t.Errorf("%s: meter saw no traffic: %+v", sys, m)
		}
	}
}

// brokenEndpoint is the deliberately-broken transport double: sends
// pass through to the real endpoint, but every posted receive completes
// immediately with fabricated zeros and is never matched against
// incoming data — a lying NIC.  The run still finishes (nothing blocks
// on a receive), so only the invariant checker can notice: message and
// byte conservation fail, and the peer's real traffic piles up
// unexpected in the matcher.
type brokenEndpoint struct {
	mpi.Endpoint
}

func (b brokenEndpoint) Irecv(p *sim.Proc, r *mpi.Request) {
	r.Complete(r.Peer(), r.Tag(), r.Len())
}

// MatchState forwards to the real endpoint so the checker's unexpected-
// queue scan still sees the mess the double leaves behind.
func (b brokenEndpoint) MatchState() *mpi.Matcher {
	return b.Endpoint.(mpi.MatchStater).MatchState()
}

func TestBrokenTransportCaught(t *testing.T) {
	const seed = 42
	inner, err := transport.ByName("gm")
	if err != nil {
		t.Fatal(err)
	}
	in, err := platform.New(platform.Config{Custom: inner, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	// Swap the worker's endpoint (rank 0 only) for the lying double
	// after the real transport attached to the fabric.  The support
	// rank stays honest so its echo loop still terminates on the
	// worker's FIN.
	c0 := in.Comms[0]
	in.Comms[0] = mpi.NewComm(in.Sys.Env, c0.Rank(), c0.Size(), brokenEndpoint{c0.Endpoint()})
	chk := invariant.Attach(in.Sys, in.Comms, invariant.Options{})
	err = in.Run(func(p *sim.Proc, c *mpi.Comm) {
		_, _ = core.RunPolling(machine.NewSim(p, c, in.Sys.Nodes[c.Rank()]), pollCfg)
	})
	if err != nil {
		t.Fatalf("simulation did not complete (the double must not deadlock): %v", err)
	}
	chk.Finish()
	verr := chk.Err()
	if verr == nil {
		t.Fatal("checker did not catch the broken transport")
	}
	// The harness convention: every caught failure carries a replayable
	// seed, as `comb selfcheck -fuzz` failures do.
	msg := fmt.Sprintf("seed=%d: %v", seed, verr)
	if !strings.Contains(msg, fmt.Sprintf("seed=%d", seed)) {
		t.Fatalf("failure message lacks replayable seed: %s", msg)
	}
	for _, want := range []string{"conservation/messages", "conservation/unexpected"} {
		if !strings.Contains(verr.Error(), want) {
			t.Errorf("expected a %s violation, got: %v", want, verr)
		}
	}
	t.Logf("caught: %s", msg)
}

func TestResultPlausibilityChecks(t *testing.T) {
	tr, err := transport.ByName("gm")
	if err != nil {
		t.Fatal(err)
	}
	in, err := platform.New(platform.Config{Custom: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	chk := invariant.Attach(in.Sys, in.Comms, invariant.Options{})

	bogus := &core.PollingResult{
		MsgSize:       1000,
		DryTime:       1,
		Elapsed:       1,
		Availability:  1.7,  // > 1: impossible
		BandwidthMBs:  9999, // beats the wire
		MsgsReceived:  10,
		BytesReceived: 1, // 10 × 1000 ≠ 1
	}
	chk.CheckPolling(bogus)
	errStr := fmt.Sprint(chk.Err())
	for _, want := range []string{"result/availability", "result/bandwidth", "result/bytes"} {
		if !strings.Contains(errStr, want) {
			t.Errorf("missing %s violation in: %s", want, errStr)
		}
	}
}
