package invariant_test

import (
	"fmt"
	"strings"
	"testing"

	"comb/internal/core"
	"comb/internal/invariant"
	"comb/internal/sim"
	"comb/internal/transport"
)

// The values pinned below were read from the checker when it still
// watched every event through an OnStep observer.  The environment now
// keeps the pending peak and the first over-bound step itself, and must
// report exactly what the observer did.

// TestQueueBoundSerial: a bound of one on a serial two-node run trips
// once, at the first step the queue went over it, with the depth then.
func TestQueueBoundSerial(t *testing.T) {
	for _, c := range []struct {
		sys   string
		at    sim.Time
		depth int
	}{
		{"gm", 45_500, 3},
		{"portals", 5_009, 2},
	} {
		tr, err := transport.ByName(c.sys)
		if err != nil {
			t.Fatal(err)
		}
		chk, _ := runPollingWith(t, tr, invariant.Options{MaxPending: 1}, pollCfg)
		want := invariant.Violation{
			At:     c.at,
			Rule:   "queue/bound",
			Detail: fmt.Sprintf("event queue depth %d exceeds bound 1 (livelock?)", c.depth),
		}
		if vs := chk.Violations(); len(vs) != 1 || vs[0] != want {
			t.Errorf("%s: violations %v, want exactly [%v]", c.sys, vs, want)
		}
	}
}

// TestPeakPendingPinned: the deepest queue seen at a step, on fixed
// two-node runs.  The Portals run at 100 KB preempts kernel grants with
// interrupts, so its completions are re-armed in place.
func TestPeakPendingPinned(t *testing.T) {
	bulk := core.PollingConfig{
		Config:       core.Config{MsgSize: 100_000},
		PollInterval: 1000,
		WorkTotal:    500_000,
		QueueDepth:   2,
	}
	for _, c := range []struct {
		sys  string
		cfg  core.PollingConfig
		peak int
	}{
		{"gm", pollCfg, 8},
		{"tcp", pollCfg, 14},
		{"portals", pollCfg, 6},
		{"portals", bulk, 9},
	} {
		tr, err := transport.ByName(c.sys)
		if err != nil {
			t.Fatal(err)
		}
		chk, _ := runPollingWith(t, tr, invariant.Options{}, c.cfg)
		if err := chk.Err(); err != nil {
			t.Fatalf("%s %d B: %v", c.sys, c.cfg.MsgSize, err)
		}
		if got := chk.PeakPending(); got != c.peak {
			t.Errorf("%s %d B: PeakPending %d, want %d", c.sys, c.cfg.MsgSize, got, c.peak)
		}
	}
}

// TestQueueBoundPrecedesFinishRules: the queue bound trips during the
// run, so its violation comes ahead of the conservation rules Finish
// adds, as it did when the observer recorded it the moment it tripped.
func TestQueueBoundPrecedesFinishRules(t *testing.T) {
	chk := runBroken(t, 42, invariant.Options{MaxPending: 1})
	vs := chk.Violations()
	if len(vs) < 2 {
		t.Fatalf("violations %v, want the queue bound and the broken double's", vs)
	}
	if vs[0].Rule != "queue/bound" {
		t.Errorf("first violation %v, want queue/bound", vs[0])
	}
	for _, v := range vs[1:] {
		if v.Rule == "queue/bound" {
			t.Errorf("queue/bound reported twice: %v", vs)
		}
	}
	msg := chk.Err().Error()
	if q, c := strings.Index(msg, "queue/bound"), strings.Index(msg, "conservation/"); q < 0 || c < 0 || q > c {
		t.Errorf("Err() does not list queue/bound ahead of the conservation rules:\n%s", msg)
	}
}

// TestQueueBoundRelaxed: a relaxed queue bound is suppressed like any
// other rule, while the pending peak is still kept.
func TestQueueBoundRelaxed(t *testing.T) {
	tr, err := transport.ByName("gm")
	if err != nil {
		t.Fatal(err)
	}
	chk, _ := runPollingWith(t, tr, invariant.Options{MaxPending: 1, Relax: []string{"queue/bound"}}, pollCfg)
	if err := chk.Err(); err != nil {
		t.Errorf("relaxed queue bound still reported: %v", err)
	}
	if chk.PeakPending() != 8 {
		t.Errorf("PeakPending %d, want 8", chk.PeakPending())
	}
}
