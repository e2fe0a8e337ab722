package comb

import (
	"context"
	"testing"

	"comb/internal/method/collov"
	"comb/internal/method/halo"
	"comb/internal/method/netperf"
	"comb/internal/method/pingpong"
)

// parallelCases enumerates every node-scaling method with a small
// 8-node workload; TestParallelEquality crosses them with every
// registered system.
func parallelCases() []struct {
	name string
	spec RunSpec
} {
	return []struct {
		name string
		spec RunSpec
	}{
		{"polling", RunSpec{
			Method: MethodPolling,
			Nodes:  8,
			Polling: &PollingConfig{
				Config:       Config{MsgSize: 50_000},
				PollInterval: 50_000,
				WorkTotal:    2_000_000,
			},
		}},
		{"pww", RunSpec{
			Method: MethodPWW,
			Nodes:  8,
			PWW: &PWWConfig{
				Config:       Config{MsgSize: 20_000},
				WorkInterval: 100_000,
				Reps:         3,
			},
		}},
		{"pingpong", RunSpec{
			Method: MethodPingpong,
			Nodes:  8,
			Params: pingpong.Params{MsgSize: 8192, Reps: 5},
		}},
		{"collov", RunSpec{
			Method: MethodCollov,
			Nodes:  8,
			Params: collov.Params{MsgSize: 16_384, Reps: 2, WorkGrid: 8},
		}},
		{"halo", RunSpec{
			Method: MethodHalo,
			Nodes:  8,
			Params: halo.Params{MsgSize: 8192, Iters: 4, WorkIters: 50_000},
		}},
	}
}

// TestParallelEquality is the acceptance bar for the conservative
// parallel engine: on every method × transport, an 8-node run with
// SimWorkers > 1 must produce a result hash identical to the serial
// engine's — same goldens, same manifests, same cache entries.
func TestParallelEquality(t *testing.T) {
	ctx := context.Background()
	for _, c := range parallelCases() {
		for _, sys := range Systems() {
			t.Run(c.name+"/"+sys, func(t *testing.T) {
				serial := c.spec
				serial.System = sys
				sout, err := Run(ctx, serial)
				if err != nil {
					t.Fatal(err)
				}
				par := serial
				par.SimWorkers = 4
				pout, err := Run(ctx, par)
				if err != nil {
					t.Fatal(err)
				}
				if sout.Manifest.ResultHash != pout.Manifest.ResultHash {
					t.Errorf("parallel run diverged from serial:\n  serial:   %s\n  parallel: %s\n  serial result:   %s\n  parallel result: %s",
						sout.Manifest.ResultHash, pout.Manifest.ResultHash, sout.Value, pout.Value)
				}
				// The parallel engine must actually have engaged, not
				// silently fallen back: every transport's link has positive
				// lookahead, so the window counter must be present and hot.
				if n := windowCounter(pout, "comb_sim_window_advanced_total"); n <= 0 {
					t.Errorf("parallel run advanced %d windows; engine did not engage", n)
				}
				if windowCounter(sout, "comb_sim_window_advanced_total") != 0 {
					t.Error("serial run must not report window metrics")
				}
			})
		}
	}
}

// windowCounter reads a window-engine counter from a finished run's
// metric registry (0 when absent, i.e. the serial engine ran).
func windowCounter(out *RunResult, name string) int64 {
	for _, c := range out.Metrics.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestParallelFallsBackOnTwoNodes: SimWorkers on the classic 2-node
// topology is a silent no-op — partitioning two nodes cannot win, so the
// serial engine runs and no window metrics appear.
func TestParallelFallsBackOnTwoNodes(t *testing.T) {
	s := pollingSpec()
	s.SimWorkers = 4
	out, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if n := windowCounter(out, "comb_sim_window_advanced_total"); n != 0 {
		t.Errorf("2-node run reported %d windows; must fall back to serial", n)
	}

	base, err := Run(context.Background(), pollingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if base.Manifest.ResultHash != out.Manifest.ResultHash {
		t.Errorf("fallback hash %s != serial hash %s", out.Manifest.ResultHash, base.Manifest.ResultHash)
	}
}

// TestParallelTraceForcesSerial: packet tracing hooks the fabric from
// the delivering partition, so TraceCap forces the serial engine.
func TestParallelTraceForcesSerial(t *testing.T) {
	s := parallelCases()[0].spec
	s.System = "gm"
	s.SimWorkers = 4
	s.TraceCap = 8
	out, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || out.Trace.Len() == 0 {
		t.Fatal("TraceCap run recorded no deliveries")
	}
	if n := windowCounter(out, "comb_sim_window_advanced_total"); n != 0 {
		t.Errorf("traced run reported %d windows; tracing must force serial", n)
	}
}

// TestNodesNeedsNodeScaler: methods without multi-pair support (netperf)
// reject Nodes > 2 at validation time.
func TestNodesNeedsNodeScaler(t *testing.T) {
	_, err := Run(context.Background(), RunSpec{
		Method: "netperf",
		System: "tcp",
		Nodes:  8,
		Params: netperf.Params{Mode: "select", MsgSize: 16384, LoopIters: 100_000},
	})
	if err == nil {
		t.Fatal("netperf with 8 nodes must be rejected")
	}
}

// TestNodesMustBeEven: pair-structured methods reject odd cluster sizes.
func TestNodesMustBeEven(t *testing.T) {
	s := pollingSpec()
	s.Nodes = 5
	if _, err := Run(context.Background(), s); err == nil {
		t.Fatal("odd node count must be rejected")
	}
}
