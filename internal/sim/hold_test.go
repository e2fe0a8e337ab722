package sim

import (
	"fmt"
	"strings"
	"testing"
)

// holdState is what a refused hold must leave untouched.
type holdState struct {
	now     Time
	steps   uint64
	pending int
}

func stateOf(e *Env) holdState { return holdState{e.Now(), e.Steps(), e.Pending()} }

// holdCallers are the two callers a quiet hold serves: a running
// process (Proc.Hold) and an event callback with no process running
// (Env.Hold).
var holdCallers = []string{"process", "callback"}

// tryHold runs setup and then asks to hold for 10, standing in for 2
// events, from a process or from an event callback at t=0, as caller
// names; drive runs the environment.  It reports whether the hold
// succeeded, and fails the test if a refused hold changed the clock, the
// step count or the queue.
func tryHold(t *testing.T, caller string, setup func(e *Env), drive func(e *Env)) bool {
	t.Helper()
	return tryHoldOn(t, NewEnv(), caller, setup, drive)
}

// tryHoldOn is tryHold on the environment e.
func tryHoldOn(t *testing.T, e *Env, caller string, setup func(e *Env), drive func(e *Env)) bool {
	t.Helper()
	defer e.Close()
	var held, ran bool
	try := func(hold func() bool) {
		setup(e)
		before := stateOf(e)
		held = hold()
		if after := stateOf(e); !held && after != before {
			t.Errorf("refused hold changed the env: %+v -> %+v", before, after)
		}
		ran = true
	}
	if caller == "process" {
		e.Spawn("holder", func(p *Proc) { try(func() bool { return p.Hold(10, 2) }) })
	} else {
		e.Schedule(0, func() { try(func() bool { return e.Hold(10, 2) }) })
	}
	drive(e)
	if !ran {
		t.Fatal("holding caller never ran")
	}
	return held
}

// armAt returns a setup that arms a new slot due after d.
func armAt(d Time) func(e *Env) {
	return func(e *Env) { e.Arm(e.NewSlots(1), d, func(any) {}, nil) }
}

func TestHoldRefusals(t *testing.T) {
	nop := func() {}
	run := func(e *Env) { e.Run() }
	cases := []struct {
		name  string
		setup func(e *Env)
		drive func(e *Env)
	}{
		{"event due at now+d", func(e *Env) { e.Schedule(10, nop) }, run},
		{"slot due at now+d", armAt(10), run},
		{"ring entry at the current instant", func(e *Env) { e.Schedule(0, nop) }, run},
		{"pending instant-end callback", func(e *Env) { e.AtInstantEnd(nop) }, run},
		{"stopped env", func(e *Env) { e.Stop() }, run},
		{"RunUntil deadline below now+d", func(*Env) {}, func(e *Env) { e.RunUntil(9) }},
		{"RunBefore bound at now+d", func(*Env) {}, func(e *Env) { e.RunBefore(10) }},
	}
	for _, caller := range holdCallers {
		for _, c := range cases {
			name := c.name
			if caller != "process" {
				name = caller + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				if tryHold(t, caller, c.setup, c.drive) {
					t.Error("Hold succeeded; want refusal")
				}
			})
		}
	}
}

// TestHoldSlots: a slot counts as any queued event.  One due at the
// current instant, armed before the instant began, refuses a hold; so
// does one due at now+d on a partition environment, whose slots carry
// partition stamps, while one due after now+d does not.
func TestHoldSlots(t *testing.T) {
	for _, caller := range holdCallers {
		t.Run(caller+"/slot due at now", func(t *testing.T) {
			e := NewEnv()
			defer e.Close()
			var held, ran bool
			try := func(hold func() bool) {
				before := stateOf(e)
				held, ran = hold(), true
				if after := stateOf(e); !held && after != before {
					t.Errorf("refused hold changed the env: %+v -> %+v", before, after)
				}
			}
			// The caller's wake-up at t=5 is scheduled before the slot is
			// armed for t=5, so the caller runs first, with the slot due.
			if caller == "process" {
				e.Spawn("holder", func(p *Proc) {
					p.Sleep(5)
					try(func() bool { return p.Hold(10, 2) })
				})
			} else {
				e.Schedule(5, func() { try(func() bool { return e.Hold(10, 2) }) })
			}
			e.Schedule(0, func() { armAt(5)(e) })
			e.Run()
			if !ran || held {
				t.Errorf("ran %v, held %v; want a refusal", ran, held)
			}
		})
		t.Run(caller+"/partition env", func(t *testing.T) {
			run := func(e *Env) { e.Run() }
			if tryHoldOn(t, NewPartitionEnv(1), caller, armAt(10), run) {
				t.Error("Hold succeeded with a slot due at now+d")
			}
			if !tryHoldOn(t, NewPartitionEnv(1), caller, armAt(11), run) {
				t.Error("Hold refused with the only slot due after now+d")
			}
		})
	}
}

func TestHoldWithinDeadlines(t *testing.T) {
	// The deadline bounds are inclusive of the last executable instant:
	// RunUntil(10) runs events at 10, RunBefore(11) runs events below 11.
	far := func(e *Env) { e.Schedule(11, func() {}) }
	for _, caller := range holdCallers {
		for name, drive := range map[string]func(e *Env){
			"Run":           func(e *Env) { e.Run() },
			"RunUntil(10)":  func(e *Env) { e.RunUntil(10) },
			"RunBefore(11)": func(e *Env) { e.RunBefore(11) },
		} {
			if !tryHold(t, caller, far, drive) {
				t.Errorf("%s, %s: Hold(10) refused with the next event at 11", caller, name)
			}
		}
	}
}

func TestHoldRefusesNonRunningCaller(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	parked := e.Spawn("parked", func(p *Proc) { p.Park() })
	e.Spawn("other", func(p *Proc) {
		if parked.Hold(10, 2) {
			t.Error("a process held on behalf of a parked one")
		}
	})
	e.Schedule(1, func() {
		if parked.Hold(10, 2) {
			t.Error("an event callback held on behalf of a parked process")
		}
	})
	e.Run()
	if e.Now() != 1 || e.Steps() != 3 {
		t.Errorf("now = %v, steps = %d; want 1 and 3 (two spawns, one callback)", e.Now(), e.Steps())
	}
}

func TestHoldAccounting(t *testing.T) {
	// A hold stands in for n events: Steps rises by n, the observers run
	// n times at the held-to instant (from inside the process), and the
	// queue is as it was.
	e := NewEnv()
	defer e.Close()
	type obs struct {
		at  Time
		cur *Proc
	}
	var seen []obs
	e.OnStep(func(at Time) { seen = append(seen, obs{at, e.Cur()}) })
	e.Schedule(100, func() {})
	var p0 *Proc
	p0 = e.Spawn("holder", func(p *Proc) {
		before := stateOf(e)
		seen = seen[:0]
		if !p.Hold(10, 3) {
			t.Fatal("Hold refused with nothing due before t=100")
		}
		after := stateOf(e)
		if want := (holdState{before.now + 10, before.steps + 3, before.pending}); after != want {
			t.Errorf("after hold %+v, want %+v", after, want)
		}
		if want := []obs{{10, p0}, {10, p0}, {10, p0}}; fmt.Sprint(seen) != fmt.Sprint(want) {
			t.Errorf("observers saw %v, want %v", seen, want)
		}
	})
	e.Run()
	if e.Now() != 100 {
		t.Errorf("run ended at %v, want 100", e.Now())
	}
}

func TestHoldMaxStepsPanics(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Spawn("holder", func(p *Proc) {
		e.MaxSteps = e.Steps() + 1
		p.Hold(10, 2)
		t.Error("Hold returned past MaxSteps")
	})
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "exceeded MaxSteps=2") {
			t.Fatalf("recovered %v, want the MaxSteps panic", r)
		}
	}()
	e.Run()
}

func TestHoldNegativeDelayPanics(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Spawn("holder", func(p *Proc) { p.Hold(-1, 2) })
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "negative delay") {
			t.Fatalf("recovered %q, want the negative-delay panic", r)
		}
	}()
	e.Run()
}

func TestCallbackHoldRefusedWhileProcessRuns(t *testing.T) {
	// Env.Hold stands in for a callback's events; called from inside a
	// process it must refuse, as Proc.Hold refuses for a parked process.
	e := NewEnv()
	defer e.Close()
	e.Spawn("runner", func(p *Proc) {
		if e.Hold(10, 2) {
			t.Error("Env.Hold held while a process was running")
		}
	})
	e.Run()
	if e.Now() != 0 || e.Steps() != 1 {
		t.Errorf("now = %v, steps = %d; want 0 and 1", e.Now(), e.Steps())
	}
}

func TestCallbackHoldAccounting(t *testing.T) {
	// A callback hold counts as Proc.Hold does: Steps rises by n, the
	// observers run n times at the held-to instant with no process
	// current, and the queue is as it was.
	e := NewEnv()
	defer e.Close()
	var seen []Time
	e.Schedule(100, func() {})
	e.Schedule(0, func() {
		before := stateOf(e)
		e.OnStep(func(at Time) { seen = append(seen, at) })
		if !e.Hold(10, 3) {
			t.Fatal("Hold refused with nothing due before t=100")
		}
		if after, want := stateOf(e), (holdState{before.now + 10, before.steps + 3, before.pending}); after != want {
			t.Errorf("after hold %+v, want %+v", after, want)
		}
	})
	e.Run()
	if want := []Time{10, 10, 10, 100}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("observers saw %v, want %v", seen, want)
	}
}
