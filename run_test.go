package comb

import (
	"context"
	"strings"
	"testing"
)

func pollingSpec() RunSpec {
	return RunSpec{
		Method: MethodPolling,
		System: "ideal",
		Polling: &PollingConfig{
			Config:       Config{MsgSize: 100_000},
			PollInterval: 100_000,
			WorkTotal:    5_000_000,
		},
	}
}

func TestRunPollingSpec(t *testing.T) {
	out, err := Run(context.Background(), pollingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if out.Polling == nil {
		t.Fatal("no polling result")
	}
	if out.PWW != nil {
		t.Error("polling run must not set PWW")
	}
	if out.Polling.BandwidthMBs <= 0 {
		t.Errorf("bandwidth = %v", out.Polling.BandwidthMBs)
	}
	if out.Stats == nil || out.Stats.Packets <= 0 {
		t.Errorf("stats missing or empty: %+v", out.Stats)
	}
	if out.Trace != nil {
		t.Error("trace must be nil when TraceCap is 0")
	}
}

func TestRunPWWSpecWithTrace(t *testing.T) {
	out, err := Run(context.Background(), RunSpec{
		Method:   MethodPWW,
		System:   "gm",
		TraceCap: 16,
		PWW: &PWWConfig{
			Config:       Config{MsgSize: 10_000},
			WorkInterval: 100_000,
			Reps:         3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.PWW == nil {
		t.Fatal("no pww result")
	}
	if out.Trace == nil || out.Trace.Len() == 0 {
		t.Error("TraceCap > 0 must record packet deliveries")
	}
}

// TestRunTracesPacketDeliveries checks what TraceCap records: one
// instant per fabric delivery, at the receiving node, in time order.  A
// 10 KB ping on GM goes eager, so node 1 receives it as 3 fragments at
// the 4 KB MTU (after the 17-byte barrier token).
func TestRunTracesPacketDeliveries(t *testing.T) {
	out, err := Run(context.Background(), RunSpec{
		Method:   MethodPingpong,
		System:   "gm",
		TraceCap: 1024,
		Params:   PingpongConfig{MsgSize: 10_000, Reps: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := out.Trace.Items()
	var toNode1 []string
	for i, e := range ev {
		if e.Cat != "pkt" {
			t.Fatalf("instant %d has category %q, want pkt", i, e.Cat)
		}
		if i > 0 && e.At < ev[i-1].At {
			t.Fatalf("instant %d at %v precedes instant %d at %v", i, e.At, i-1, ev[i-1].At)
		}
		if e.Node == 1 {
			toNode1 = append(toNode1, e.Detail)
		}
	}
	want := []string{"from node0, 17B", "from node0, 4112B", "from node0, 4112B", "from node0, 1824B"}
	if strings.Join(toNode1, "; ") != strings.Join(want, "; ") {
		t.Errorf("deliveries to node1 = %q, want %q", toNode1, want)
	}
}

// TestRunTraceMatchesFabricDelivered checks that the packet ring and
// the fabric's own statistics count the same deliveries: with a ring
// large enough to drop nothing, it holds one instant per delivered
// packet.
func TestRunTraceMatchesFabricDelivered(t *testing.T) {
	out, err := Run(context.Background(), RunSpec{
		Method:   MethodPingpong,
		System:   "ideal",
		TraceCap: 64,
		Params:   PingpongConfig{MsgSize: 1, Reps: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace.Dropped() != 0 {
		t.Fatalf("a 64-slot ring dropped %d deliveries", out.Trace.Dropped())
	}
	delivered := int64(-1)
	for _, c := range out.Metrics.Snapshot().Counters {
		if c.Name == `comb_packets_total{fate="delivered"}` {
			delivered = c.Value
		}
	}
	if delivered <= 0 || int64(out.Trace.Len()) != delivered {
		t.Errorf("ring holds %d, fabric delivered %d", out.Trace.Len(), delivered)
	}
}

func TestRunMethodInference(t *testing.T) {
	// Method can be left empty when exactly one config is set.
	spec := pollingSpec()
	spec.Method = ""
	out, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Polling == nil {
		t.Error("inferred polling run produced no polling result")
	}
}

func TestRunSpecValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		spec RunSpec
		want string
	}{
		{"no config", RunSpec{System: "gm"}, "needs a method config"},
		{"both configs no method", RunSpec{System: "gm",
			Polling: &PollingConfig{PollInterval: 1, WorkTotal: 1},
			PWW:     &PWWConfig{WorkInterval: 1},
		}, "set Method to disambiguate"},
		{"polling method, nil config", RunSpec{Method: MethodPolling, System: "gm"}, "non-nil Polling"},
		{"pww method, nil config", RunSpec{Method: MethodPWW, System: "gm"}, "non-nil PWW"},
		{"unknown method", RunSpec{Method: "bogus", System: "gm"}, "unknown method"},
	}
	for _, c := range cases {
		_, err := Run(ctx, c.spec)
		if err == nil {
			t.Errorf("%s: must fail", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, pollingSpec()); err != context.Canceled {
		t.Errorf("cancelled Run = %v, want context.Canceled", err)
	}
}

// TestRunRegistryDispatch: Run is the facade's single entry point, and
// every registered method dispatches through the registry identically —
// a spec carrying a dedicated config pointer and a spec carrying the
// same config as generic Params must produce byte-identical results
// (the simulation is deterministic, so equality is exact).
func TestRunRegistryDispatch(t *testing.T) {
	ctx := context.Background()

	// Dedicated-pointer path vs. registry Params path, polling.
	spec := pollingSpec()
	want, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	viaParams, err := Run(ctx, RunSpec{Method: MethodPolling, System: spec.System, Params: *spec.Polling})
	if err != nil {
		t.Fatal(err)
	}
	if viaParams.Polling == nil || *viaParams.Polling != *want.Polling {
		t.Errorf("Params dispatch diverged from Polling dispatch: %+v vs %+v", viaParams.Polling, want.Polling)
	}
	if viaParams.Manifest.ResultHash != want.Manifest.ResultHash {
		t.Errorf("result hashes diverged: %s vs %s", viaParams.Manifest.ResultHash, want.Manifest.ResultHash)
	}

	// Same for PWW.
	pcfg := PWWConfig{
		Config:       Config{MsgSize: 10_000},
		WorkInterval: 100_000,
		Reps:         3,
	}
	wantPWW, err := Run(ctx, RunSpec{Method: MethodPWW, System: "ideal", PWW: &pcfg})
	if err != nil {
		t.Fatal(err)
	}
	pwwParams, err := Run(ctx, RunSpec{Method: MethodPWW, System: "ideal", Params: pcfg})
	if err != nil {
		t.Fatal(err)
	}
	if pwwParams.PWW == nil || pwwParams.PWW.AvgWait != wantPWW.PWW.AvgWait || pwwParams.PWW.BandwidthMBs != wantPWW.PWW.BandwidthMBs {
		t.Errorf("PWW Params dispatch diverged: %+v vs %+v", pwwParams.PWW, wantPWW.PWW)
	}

	// A non-primary registered method flows through the same entry point:
	// its typed result lands in Value (the dedicated views stay nil).
	pp, err := Run(ctx, RunSpec{Method: MethodPingpong, System: "ideal", Params: PingpongConfig{MsgSize: 10_000, Reps: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if pp.Polling != nil || pp.PWW != nil {
		t.Error("pingpong run must not set the polling/PWW views")
	}
	if r, ok := pp.Value.(*PingpongResult); !ok || r.BandwidthMBs <= 0 {
		t.Errorf("pingpong dispatch returned %T %+v", pp.Value, pp.Value)
	}
}
