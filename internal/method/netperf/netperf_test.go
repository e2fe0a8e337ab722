package netperf

import (
	"context"
	"testing"

	"comb/internal/runpipe"
	"comb/internal/spec"
)

const loopIters = 25_000_000 // ~50 ms of work

// run measures through the shared pipeline, as every caller does.
func run(system, mode string, msgSize int, loop int64) (*Result, error) {
	out, err := runpipe.Run(context.Background(), spec.Spec{
		Method: spec.MethodNetperf,
		System: system,
		Params: Params{Mode: mode, MsgSize: msgSize, LoopIters: loop},
	})
	if err != nil {
		return nil, err
	}
	return out.Value.(*Result), nil
}

func TestNetperfBusyWaitMisreportsGM(t *testing.T) {
	// The paper's §5 criticism, reproduced: GM truly leaves the host CPU
	// alone during transfers (COMB measures ~1.0 availability), but a
	// netperf-style two-process measurement sees the busy-waiting MPI
	// process eat roughly half the node and reports ~0.5.
	r, err := run("gm", ModeBusyWait, 100_000, loopIters)
	if err != nil {
		t.Fatal(err)
	}
	if r.Availability < 0.3 || r.Availability > 0.7 {
		t.Errorf("busy-wait netperf on GM reports %.3f, want ~0.5 (round-robin with spinner)", r.Availability)
	}
}

func TestNetperfSelectWaitGM(t *testing.T) {
	// Under netperf's own assumption (the waiter yields), GM measures
	// nearly fully available — consistent with COMB.
	r, err := run("gm", ModeSelect, 100_000, loopIters)
	if err != nil {
		t.Fatal(err)
	}
	if r.Availability < 0.9 {
		t.Errorf("select netperf on GM reports %.3f, want ~1.0", r.Availability)
	}
}

func TestNetperfSelectWaitPortalsSeesOverhead(t *testing.T) {
	// Portals' interrupts and kernel copies slow the delay loop even when
	// the communication process yields while waiting.
	r, err := run("portals", ModeSelect, 100_000, loopIters)
	if err != nil {
		t.Fatal(err)
	}
	if r.Availability > 0.8 {
		t.Errorf("select netperf on Portals reports %.3f, want substantial overhead", r.Availability)
	}
}

func TestNetperfResultFields(t *testing.T) {
	r, err := run("ideal", ModeSelect, 50_000, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.System != "ideal" || r.MsgSize != 50_000 || r.Mode != SelectWait {
		t.Errorf("config not echoed: %+v", r)
	}
	if r.DryTime <= 0 || r.Elapsed < r.DryTime {
		t.Errorf("times inconsistent: dry %v elapsed %v", r.DryTime, r.Elapsed)
	}
	if r.String() == "" || BusyWait.String() != "busy-wait" || SelectWait.String() != "select" {
		t.Error("string forms wrong")
	}
}

func TestNetperfValidation(t *testing.T) {
	// Zero means "default" in the method, so the invalid values are
	// negative.
	if _, err := run("gm", ModeBusyWait, -1, 10); err == nil {
		t.Error("negative size must fail")
	}
	if _, err := run("gm", ModeBusyWait, 10, -1); err == nil {
		t.Error("negative loop iters must fail")
	}
	if _, err := run("gm", "bogus", 10, 10); err == nil {
		t.Error("unknown mode must fail")
	}
	if _, err := run("nosuch", ModeBusyWait, 10, 10); err == nil {
		t.Error("unknown system must fail")
	}
}
