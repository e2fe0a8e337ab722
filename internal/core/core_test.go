package core_test

import (
	"sync"
	"testing"
	"time"

	"comb/internal/core"
)

// runFakePolling runs the polling method on the fake world and returns the
// worker result.
func runFakePolling(t *testing.T, size int, cfg core.PollingConfig) *core.PollingResult {
	t.Helper()
	w := newFakeWorld(size)
	var mu sync.Mutex
	var res *core.PollingResult
	w.run(func(m core.Machine) {
		r, err := core.RunPolling(m, cfg)
		if err != nil {
			t.Errorf("rank %d: %v", m.Rank(), err)
			return
		}
		if r != nil {
			mu.Lock()
			defer mu.Unlock()
			if res != nil {
				t.Error("two ranks returned results")
			}
			res = r
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	if res == nil {
		t.Fatal("no worker result")
	}
	return res
}

func runFakePWW(t *testing.T, size int, cfg core.PWWConfig) *core.PWWResult {
	t.Helper()
	w := newFakeWorld(size)
	var mu sync.Mutex
	var res *core.PWWResult
	w.run(func(m core.Machine) {
		r, err := core.RunPWW(m, cfg)
		if err != nil {
			t.Errorf("rank %d: %v", m.Rank(), err)
			return
		}
		if r != nil {
			mu.Lock()
			defer mu.Unlock()
			res = r
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	if res == nil {
		t.Fatal("no worker result")
	}
	return res
}

func TestPollingTerminatesAndCounts(t *testing.T) {
	cfg := core.PollingConfig{
		Config:       core.Config{MsgSize: 1000},
		PollInterval: 100,
		WorkTotal:    10_000,
		QueueDepth:   4,
	}
	r := runFakePolling(t, 2, cfg)
	// The fake ranks run on real goroutines, so how many messages land
	// inside the timed window is scheduling-dependent; the deterministic
	// volume assertions live in the simulator integration tests.  Here we
	// check the structural invariants: clean termination (run returning at
	// all proves the handshake drained every in-flight message) and
	// byte/message conservation.
	if r.BytesReceived != r.MsgsReceived*1000 {
		t.Errorf("bytes %d != msgs %d * size", r.BytesReceived, r.MsgsReceived)
	}
	if r.DryTime != 10_000 {
		t.Errorf("dry time %v, want 10000ns (1ns/iter fake)", r.DryTime)
	}
	if r.Availability <= 0 || r.Availability > 1 {
		t.Errorf("availability %v out of (0,1]", r.Availability)
	}
}

func TestPollingEchoesConfig(t *testing.T) {
	cfg := core.PollingConfig{
		Config:       core.Config{MsgSize: 64, Tag: 3},
		PollInterval: 7,
		WorkTotal:    500,
		QueueDepth:   2,
	}
	r := runFakePolling(t, 2, cfg)
	if r.MsgSize != 64 || r.PollInterval != 7 || r.WorkTotal != 500 || r.QueueDepth != 2 {
		t.Errorf("config not echoed: %+v", r)
	}
}

func TestPollingDefaults(t *testing.T) {
	r := runFakePolling(t, 2, core.PollingConfig{PollInterval: 1000})
	if r.MsgSize != core.DefaultMsgSize || r.QueueDepth != core.DefaultQueueDepth {
		t.Errorf("defaults not applied: %+v", r)
	}
}

func TestPollingQueueDepthOne(t *testing.T) {
	// Depth 1 is the paper's degenerate ping-pong; it must still terminate.
	r := runFakePolling(t, 2, core.PollingConfig{
		Config:       core.Config{MsgSize: 100},
		PollInterval: 50,
		WorkTotal:    5_000,
		QueueDepth:   1,
	})
	if r.QueueDepth != 1 || r.BytesReceived != r.MsgsReceived*100 {
		t.Errorf("ping-pong mode inconsistent: %+v", r)
	}
}

func TestPollingExtraRanksIdle(t *testing.T) {
	r := runFakePolling(t, 4, core.PollingConfig{
		Config:       core.Config{MsgSize: 100},
		PollInterval: 100,
		WorkTotal:    2_000,
	})
	if r.BytesReceived != r.MsgsReceived*100 {
		t.Errorf("conservation violated with idle ranks: %+v", r)
	}
}

func TestPollingValidation(t *testing.T) {
	w := newFakeWorld(2)
	w.run(func(m core.Machine) {
		if _, err := core.RunPolling(m, core.PollingConfig{}); err == nil {
			t.Error("zero poll interval must be rejected")
		}
		if _, err := core.RunPolling(m, core.PollingConfig{PollInterval: -1}); err == nil {
			t.Error("negative poll interval must be rejected")
		}
		if _, err := core.RunPolling(m, core.PollingConfig{
			PollInterval: 10, Config: core.Config{MsgSize: -1},
		}); err == nil {
			t.Error("negative message size must be rejected")
		}
	})
}

func TestPollingNeedsTwoRanks(t *testing.T) {
	w := newFakeWorld(1)
	w.run(func(m core.Machine) {
		if _, err := core.RunPolling(m, core.PollingConfig{PollInterval: 10}); err == nil {
			t.Error("single rank must be rejected")
		}
	})
}

func TestPWWTerminatesAndAccounts(t *testing.T) {
	cfg := core.PWWConfig{
		Config:       core.Config{MsgSize: 1000},
		WorkInterval: 5_000,
		Reps:         8,
		BatchSize:    3,
	}
	r := runFakePWW(t, 2, cfg)
	wantBytes := int64(8 * 3 * 1000)
	if r.BytesReceived != wantBytes {
		t.Errorf("bytes = %d, want %d", r.BytesReceived, wantBytes)
	}
	// Phase accounting must tile the elapsed window exactly: the fake's
	// clock only advances inside Work, so elapsed == sum of phases.
	if got := r.PostRecvTotal + r.PostSendTotal + r.WorkTotal + r.WaitTotal; got != r.Elapsed {
		t.Errorf("phases sum to %v, elapsed %v", got, r.Elapsed)
	}
	if r.WorkOnly != 5_000 {
		t.Errorf("dry work = %v, want 5000ns", r.WorkOnly)
	}
	if r.AvgWorkMH != r.AvgWorkOnly {
		t.Errorf("fake transport steals no CPU, AvgWorkMH %v != AvgWorkOnly %v", r.AvgWorkMH, r.AvgWorkOnly)
	}
	if r.WorkOverhead != 0 {
		t.Errorf("work overhead %v, want 0", r.WorkOverhead)
	}
	if r.Availability <= 0.99 || r.Availability > 1 {
		t.Errorf("instant transport availability %v, want ~1", r.Availability)
	}
}

func TestPWWTestInWorkVariant(t *testing.T) {
	r := runFakePWW(t, 2, core.PWWConfig{
		Config:       core.Config{MsgSize: 100},
		WorkInterval: 1_000,
		Reps:         3,
		TestInWork:   true,
	})
	if !r.TestInWork {
		t.Error("TestInWork not echoed")
	}
	// Work phase must still perform the full interval.
	if r.AvgWorkMH != 1_000 {
		t.Errorf("work phase %v, want full 1000ns even with embedded Test", r.AvgWorkMH)
	}
}

func TestPWWValidation(t *testing.T) {
	w := newFakeWorld(2)
	w.run(func(m core.Machine) {
		if _, err := core.RunPWW(m, core.PWWConfig{}); err == nil {
			t.Error("zero work interval must be rejected")
		}
		if _, err := core.RunPWW(m, core.PWWConfig{WorkInterval: 5, Reps: -1}); err == nil {
			t.Error("negative reps must be rejected")
		}
		if _, err := core.RunPWW(m, core.PWWConfig{WorkInterval: 5, BatchSize: -1}); err == nil {
			t.Error("negative batch must be rejected")
		}
	})
}

func TestPWWExtraRanksIdle(t *testing.T) {
	r := runFakePWW(t, 4, core.PWWConfig{
		Config:       core.Config{MsgSize: 10},
		WorkInterval: 100,
		Reps:         2,
	})
	if r.BytesReceived != 2*int64(core.DefaultBatchSize)*10 {
		t.Errorf("bytes = %d", r.BytesReceived)
	}
}

func TestResultStrings(t *testing.T) {
	p := core.PollingResult{MsgSize: 10, PollInterval: 5, BandwidthMBs: 1.5, Availability: 0.5}
	if p.String() == "" {
		t.Error("empty polling String")
	}
	q := core.PWWResult{MsgSize: 10, WorkInterval: 5}
	if q.String() == "" {
		t.Error("empty pww String")
	}
}

func TestPWWResultOffloaded(t *testing.T) {
	const work = 20 * time.Millisecond
	for _, tc := range []struct {
		wait time.Duration
		want bool
	}{
		{0, true},
		{work/100 - time.Nanosecond, true},
		{work / 100, false}, // the boundary: exactly 1% is not offload
		{work, false},
	} {
		r := core.PWWResult{AvgWait: tc.wait, AvgWorkOnly: work}
		if got := r.Offloaded(); got != tc.want {
			t.Errorf("AvgWait %v of AvgWorkOnly %v: Offloaded() = %v, want %v", tc.wait, work, got, tc.want)
		}
	}
}
