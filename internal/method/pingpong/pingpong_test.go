package pingpong

import (
	"context"
	"testing"
	"time"

	"comb/internal/runpipe"
	"comb/internal/spec"
)

// run measures through the shared pipeline, as every caller does.
func run(system string, size, reps int) (*Result, error) {
	out, err := runpipe.Run(context.Background(), spec.Spec{
		Method: spec.MethodPingpong,
		System: system,
		Params: Params{MsgSize: size, Reps: reps},
	})
	if err != nil {
		return nil, err
	}
	return out.Value.(*Result), nil
}

func TestPingPongRuns(t *testing.T) {
	for _, sys := range []string{"gm", "portals", "ideal"} {
		r, err := run(sys, 100_000, 10)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if r.Latency <= 0 || r.BandwidthMBs <= 0 {
			t.Errorf("%s: degenerate result %+v", sys, r)
		}
		if r.System != sys || r.MsgSize != 100_000 || r.Reps != 10 {
			t.Errorf("%s: config not echoed %+v", sys, r)
		}
	}
}

func TestPingPongSmallMessageLatency(t *testing.T) {
	// The model charges GM's paper-documented ~45 us eager-send overhead
	// to every sub-16 KB message (the paper measured it at the 10 KB
	// COMB operating point), so GM's tiny-message half-RTT lands near
	// 45 us + wire, and kernel Portals near trap+interrupt+copy costs.
	// Both must stay in the era's tens-of-microseconds range.
	gm, err := run("gm", 8, 50)
	if err != nil {
		t.Fatal(err)
	}
	ptl, err := run("portals", 8, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{gm, ptl} {
		if r.Latency < 5*time.Microsecond || r.Latency > 300*time.Microsecond {
			t.Errorf("%s small-message latency %v implausible", r.System, r.Latency)
		}
	}
	// GM's eager send overhead must be visible in its latency.
	if gm.Latency < 45*time.Microsecond {
		t.Errorf("GM latency %v below its 45us eager send cost", gm.Latency)
	}
}

func TestPingPongMissesOverlapStory(t *testing.T) {
	// The motivation for COMB: ping-pong bandwidth ranks the systems the
	// same way for big transfers but can't distinguish their overlap
	// behaviour — both "look fine".  Here we just pin the bandwidths it
	// reports so the examples' narrative stays honest.
	gm, err := run("gm", 300_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	ptl, err := run("portals", 300_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if gm.BandwidthMBs < 60 {
		t.Errorf("GM pingpong bandwidth %.1f MB/s too low", gm.BandwidthMBs)
	}
	if ptl.BandwidthMBs >= gm.BandwidthMBs {
		t.Errorf("Portals pingpong %.1f should trail GM %.1f", ptl.BandwidthMBs, gm.BandwidthMBs)
	}
}

func TestPingPongValidation(t *testing.T) {
	// Zero means "default" in the method, so the invalid values are
	// negative.
	if _, err := run("gm", -1, 10); err == nil {
		t.Error("negative size must fail")
	}
	if _, err := run("gm", 10, -1); err == nil {
		t.Error("negative reps must fail")
	}
	if _, err := run("nosuch", 10, 1); err == nil {
		t.Error("unknown system must fail")
	}
}
