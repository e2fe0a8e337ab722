package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := NewEnv()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at t=%v, want %v", i, got[i], want[i])
		}
	}
}

func TestScheduleFIFOWithinTimestamp(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, FIFO broken: %v", i, v, order)
		}
	}
}

func TestScheduleNegativeDelayPanics(t *testing.T) {
	e := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestNestedScheduling(t *testing.T) {
	e := NewEnv()
	var trace []Time
	e.Schedule(10, func() {
		trace = append(trace, e.Now())
		e.Schedule(5, func() { trace = append(trace, e.Now()) })
		e.Schedule(0, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	if len(trace) != 3 || trace[0] != want[0] || trace[1] != want[1] || trace[2] != want[2] {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestSlotDisarm(t *testing.T) {
	e := NewEnv()
	fired := false
	s := e.NewSlots(1)
	e.Arm(s, 10, func(any) { fired = true }, nil)
	e.Disarm(s)
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Disarm, want 0", e.Pending())
	}
	e.Disarm(s) // a disarmed slot: no-op
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after a second Disarm, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("disarmed slot fired")
	}
	if e.Now() != 0 {
		t.Errorf("clock advanced to %v; a disarmed slot leaves the queue and must not move it", e.Now())
	}
}

func TestSlotDisarmAfterFire(t *testing.T) {
	// Disarming a slot that already fired is a no-op: it must not
	// cancel a slot armed since, nor change the pending count.
	e := NewEnv()
	first := e.NewSlots(2)
	e.Arm(first, 1, func(any) {}, nil)
	e.Run()
	fired := false
	e.Arm(first+1, 1, func(any) { fired = true }, nil)
	e.Disarm(first)
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after disarming a fired slot, want 1", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("disarming a fired slot cancelled another slot")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	var ran []Time
	for _, d := range []Time{5, 15, 25} {
		e.Schedule(d, func() { ran = append(ran, e.Now()) })
	}
	e.RunUntil(20)
	if len(ran) != 2 {
		t.Fatalf("ran %d events before deadline, want 2", len(ran))
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v after RunUntil(20)", e.Now())
	}
	e.Run()
	if len(ran) != 3 {
		t.Fatalf("ran %d events total, want 3", len(ran))
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v at end, want 25", e.Now())
	}
}

func TestMaxStepsPanics(t *testing.T) {
	e := NewEnv()
	e.MaxSteps = 100
	var loop func()
	loop = func() { e.Schedule(0, loop) }
	e.Schedule(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected MaxSteps panic")
		}
	}()
	e.Run()
}

// Property: for any set of delays, execution order is the sorted order of
// delays, with ties broken by submission order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEnv()
		type stamp struct {
			at  Time
			seq int
		}
		var got []stamp
		for i, d := range raw {
			i, d := i, Time(d)
			e.Schedule(d, func() { got = append(got, stamp{e.Now(), i}) })
		}
		e.Run()
		if len(got) != len(raw) {
			return false
		}
		want := make([]stamp, len(raw))
		for i, d := range raw {
			want[i] = stamp{Time(d), i}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock never goes backwards, whatever the schedule.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEnv()
		last := Time(-1)
		ok := true
		for _, d := range raw {
			e.Schedule(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotDisarmDropsClosureInPlace(t *testing.T) {
	// A disarmed slot must drop its callback and argument (and everything
	// they capture) at Disarm time, not at the would-have-been fire time:
	// its entry leaves the slot queue at once, and the slot keeps no
	// reference.  That holds for a slot armed at zero delay too.
	for _, delay := range []Time{1000, 0} {
		e := NewEnv()
		big := make([]byte, 1<<20)
		first := e.NewSlots(2)
		e.Arm(first, delay, func(any) { _ = big }, &big)
		e.Arm(first+1, 5, func(any) {}, nil) // keep the env runnable
		e.Disarm(first)
		if c := e.cslots[first]; c.fn != nil || c.arg != nil || c.pos != -1 {
			t.Errorf("delay %v: disarmed slot still references its callback or a queue entry", delay)
		}
		for _, k := range e.cq {
			if k.slot == first {
				t.Errorf("delay %v: disarmed slot still in the slot queue", delay)
			}
		}
		if len(e.heap) != 0 || e.ringPop != len(e.ring) {
			t.Errorf("delay %v: an arm landed on the heap or the ring", delay)
		}
		if e.Pending() != 1 {
			t.Errorf("delay %v: pending = %d after Disarm, want 1", delay, e.Pending())
		}
		e.Run()
	}
}

func TestSlotDisarmPeekTimeExact(t *testing.T) {
	// Disarming the earlier of two slots leaves the later one at the head
	// of the slot queue: PeekTime reports a live event, never a
	// cancelled one.
	e := NewEnv()
	first := e.NewSlots(2)
	e.Arm(first, 10, func(any) {}, nil)
	e.Arm(first+1, 20, func(any) {}, nil)
	e.Disarm(first)
	if at, ok := e.PeekTime(); !ok || at != 20 {
		t.Fatalf("PeekTime = %v, %v after disarming the t=10 slot; want 20, true", at, ok)
	}
}

// TestPeekTimeSeesSlots: PeekTime reports the earlier of the heap's and
// the slot queue's heads, on serial and partition environments alike:
// a slot due at now+d ahead of a later heap entry, a heap entry ahead of
// a slot, a slot armed at zero delay, a slot due at the current instant,
// and nothing once the slot is disarmed and the heap is empty.
func TestPeekTimeSeesSlots(t *testing.T) {
	nop := func(any) {}
	for _, mk := range []func() *Env{NewEnv, func() *Env { return NewPartitionEnv(2) }} {
		e := mk()
		s := e.NewSlots(1)
		peek := func(want Time, wantOK bool, what string) {
			t.Helper()
			if at, ok := e.PeekTime(); at != want || ok != wantOK {
				t.Errorf("partitioned=%v, %s: PeekTime = %v, %v; want %v, %v", e.Partitioned(), what, at, ok, want, wantOK)
			}
		}
		peek(0, false, "empty")
		e.Schedule(20, func() {})
		e.Arm(s, 10, nop, nil)
		peek(10, true, "slot due before the heap head")
		e.Arm(s, 30, nop, nil)
		peek(20, true, "slot re-keyed past the heap head")
		e.RunUntil(20)
		peek(30, true, "slot alone")
		e.Arm(s, 0, nop, nil)
		peek(20, true, "slot re-keyed to zero delay")
		e.Disarm(s)
		peek(0, false, "slot disarmed")
		// A slot due at the current instant: the loop stops at t=25 with
		// the slot still queued, armed for t=25 before the instant began.
		e.Schedule(5, func() { e.Stop() })
		e.Arm(s, 5, nop, nil)
		e.Run()
		peek(25, true, "slot due now")
		e.Close()
	}
}

func TestCloseAfterStopReleasesQueue(t *testing.T) {
	// Stopping the loop mid-run leaves events queued; Close must release
	// them all so a dead environment retains no callbacks or captures.
	e := NewEnv()
	for i := 0; i < 100; i++ {
		e.Schedule(Time(10+i), func() {})
	}
	e.Arm(e.NewSlots(1), 50, func(any) {}, nil) // and a slot
	e.Schedule(5, func() {
		e.Schedule(0, func() {}) // occupy the ring too
		e.Stop()
	})
	e.Run()
	if e.Pending() == 0 {
		t.Fatal("test setup: expected events still pending after Stop")
	}
	e.Close()
	if e.Pending() != 0 {
		t.Errorf("pending = %d after Close, want 0", e.Pending())
	}
	if e.heap != nil || e.ring != nil || e.cslots != nil || e.cq != nil {
		t.Error("Close must release the queue arenas")
	}
}
