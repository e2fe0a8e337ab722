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

func TestTimerStop(t *testing.T) {
	e := NewEnv()
	fired := false
	tm := e.ScheduleTimer(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if e.Now() != 0 {
		t.Errorf("clock advanced to %v; a stopped timer leaves the queue and must not move it", e.Now())
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEnv()
	tm := e.ScheduleTimer(1, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
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

func TestTimerStopDropsClosureInPlace(t *testing.T) {
	// A stopped timer must drop its callback (and everything the closure
	// captures) at Stop time, not at the would-have-been fire time: its
	// heap entry is removed at once, and the vacated array slot is
	// cleared, so neither the heap nor its backing array retains it.
	e := NewEnv()
	big := make([]byte, 1<<20)
	tm := e.ScheduleTimer(1000, func() { _ = big })
	e.Schedule(0, func() {}) // keep the env runnable
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer must succeed")
	}
	for i := range e.heap {
		if e.heap[i].at == 1000 {
			t.Error("stopped entry still in the heap")
		}
	}
	for _, q := range e.heap[len(e.heap):cap(e.heap)] {
		if q.fn != nil || q.fn1 != nil || q.arg != nil {
			t.Error("vacated heap slot still references a callback")
		}
	}
	for i := e.ringPop; i < len(e.ring); i++ {
		if e.ring[i].at == 1000 {
			t.Error("delayed timer landed on the zero-delay ring")
		}
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d after Stop, want 1", e.Pending())
	}
	e.Run()
}

func TestTimerStopPeekTimeExact(t *testing.T) {
	// Stopping the earlier of two timers leaves the later one at the top
	// of the heap: PeekTime reports a live event, never a cancelled one.
	e := NewEnv()
	early := e.ScheduleTimer(10, func() {})
	e.ScheduleTimer(20, func() {})
	early.Stop()
	if at, ok := e.PeekTime(); !ok || at != 20 {
		t.Fatalf("PeekTime = %v, %v after stopping the t=10 timer; want 20, true", at, ok)
	}
}

func TestCloseAfterStopReleasesQueue(t *testing.T) {
	// Stopping the loop mid-run leaves events queued; Close must release
	// them all so a dead environment retains no callbacks or captures.
	e := NewEnv()
	for i := 0; i < 100; i++ {
		e.Schedule(Time(10+i), func() {})
	}
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
	if e.heap != nil || e.ring != nil || e.slots != nil {
		t.Error("Close must release the queue arenas")
	}
}
