package sim

import (
	"strings"
	"testing"
)

// tryInPlace asks NextInPlace from an event callback at t=5, after
// queued has scheduled events before the run and inside has run at the
// start of the callback.  It reports the answer, and fails the test if a
// refusal changed the clock, the step count, the queue or the sequence
// counter.
func tryInPlace(t *testing.T, queued, inside func(e *Env)) bool {
	t.Helper()
	return tryInPlaceOn(t, NewEnv(), queued, inside)
}

// tryInPlaceOn is tryInPlace on the environment e.
func tryInPlaceOn(t *testing.T, e *Env, queued, inside func(e *Env)) bool {
	t.Helper()
	defer e.Close()
	var ok, ran bool
	e.Schedule(5, func() {
		inside(e)
		before, seq := stateOf(e), e.seq
		ok = e.NextInPlace()
		if !ok && (stateOf(e) != before || e.seq != seq) {
			t.Errorf("refused hand-off changed the env: %+v seq %d -> %+v seq %d", before, seq, stateOf(e), e.seq)
		}
		if ok {
			e.CallInPlace(func(any) {}, nil)
		}
		ran = true
	})
	queued(e)
	e.Run()
	if !ran {
		t.Fatal("callback never ran")
	}
	return ok
}

func TestNextInPlaceRefusals(t *testing.T) {
	nop := func() {}
	none := func(*Env) {}
	cases := []struct {
		name           string
		queued, inside func(e *Env)
	}{
		{"ring entry pending", none, func(e *Env) { e.Schedule(0, nop) }},
		{"heap entry due now", func(e *Env) { e.Schedule(5, nop) }, none},
		{"slot due now", armAt(5), none},
		{"stopped env", none, func(e *Env) { e.Stop() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if tryInPlace(t, c.queued, c.inside) {
				t.Error("NextInPlace accepted; want refusal")
			}
		})
	}
	t.Run("partition env/slot due now", func(t *testing.T) {
		if tryInPlaceOn(t, NewPartitionEnv(1), armAt(5), none) {
			t.Error("NextInPlace accepted; want refusal")
		}
	})
	t.Run("quiet", func(t *testing.T) {
		if !tryInPlace(t, func(e *Env) { e.Schedule(6, nop) }, func(e *Env) { e.Schedule(1, nop) }) {
			t.Error("NextInPlace refused with nothing due now")
		}
	})
	t.Run("slot due at now+d", func(t *testing.T) {
		if !tryInPlace(t, none, armAt(1)) {
			t.Error("NextInPlace refused with the only slot due later")
		}
	})
}

func TestNextInPlaceRefusedWhileProcessRuns(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Spawn("runner", func(p *Proc) {
		if e.NextInPlace() {
			t.Error("NextInPlace accepted while a process was running")
		}
	})
	e.Run()
}

func TestInPlaceKeepsEventOrder(t *testing.T) {
	// A hand-off decided before further zero-delay scheduling runs ahead
	// of it, as the scheduled event it stands in for would, counts one
	// step and is seen by the observers at the current instant.
	e := NewEnv()
	defer e.Close()
	var order []string
	var steps []Time
	e.OnStep(func(at Time) { steps = append(steps, at) })
	e.Schedule(7, func() {
		if !e.NextInPlace() {
			t.Fatal("NextInPlace refused with an empty queue")
		}
		e.Schedule(0, func() { order = append(order, "later") })
		before := e.Steps()
		e.CallInPlace(func(a any) { order = append(order, a.(string)) }, "hand-off")
		if e.Steps() != before+1 {
			t.Errorf("hand-off counted %d steps, want 1", e.Steps()-before)
		}
	})
	e.Run()
	if strings.Join(order, ",") != "hand-off,later" {
		t.Errorf("order %v, want the hand-off first", order)
	}
	if len(steps) != 3 || steps[1] != 7 {
		t.Errorf("observers saw %v, want [7 7 7]", steps)
	}
}

func TestResumeInPlace(t *testing.T) {
	// A parked process resumed in place runs at once, with its wake-up
	// value, and the loop carries on after it parks again.
	e := NewEnv()
	defer e.Close()
	var got any
	var at Time
	p := e.Spawn("waiter", func(p *Proc) {
		got = p.Park()
		at = p.Now()
	})
	e.Schedule(3, func() {
		if !e.NextInPlace() {
			t.Fatal("NextInPlace refused with an empty queue")
		}
		e.ResumeInPlace(p, "woken")
		if !p.Done() {
			t.Error("process not resumed in place")
		}
	})
	e.Run()
	if got != "woken" || at != 3 || e.Steps() != 3 {
		t.Errorf("woke with %v at %v after %d steps; want woken at 3 after 3", got, at, e.Steps())
	}
}

func TestInPlaceMaxStepsPanics(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Schedule(0, func() {
		e.MaxSteps = e.Steps()
		if e.NextInPlace() {
			e.CallInPlace(func(any) { t.Error("hand-off ran past MaxSteps") }, nil)
		}
	})
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "exceeded MaxSteps=1") {
			t.Fatalf("recovered %q, want the MaxSteps panic", r)
		}
	}()
	e.Run()
}
