package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: user code running as a coroutine that the
// event loop resumes and parks cooperatively.  A switch between the loop
// and a process goes straight from one to the other (iter.Pull), never
// through the goroutine scheduler.  At most one process (or event
// callback) executes at any moment, which keeps simulations deterministic
// without locks.
type Proc struct {
	env    *Env
	name   string
	next   func() (struct{}, bool) // event loop -> process: run until it parks or finishes
	yield  func(struct{}) bool     // process -> event loop: park
	killed bool                    // set by Env.Close: unwind instead of resuming
	done   bool
	panicv any
	haspan bool
}

// killSignal unwinds a process that Env.Close resumes with its killed
// flag set, so its coroutine exits.
type killSignal struct{}

// Spawn creates a process named name running fn and schedules its first
// activation at the current virtual time.
//
// A panic in fn is re-raised from the event loop, naming the process.  A
// call to runtime.Goexit in fn (t.FailNow in a test, for instance) ends
// the goroutine running the event loop as well, the way it would end a
// plain function call: the loop does not carry on without the process.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	// The stop function is not kept: Close ends every unfinished
	// coroutine by resuming it with its killed flag set.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, killed := r.(killSignal); !killed {
					p.panicv = r
					p.haspan = true
				}
			}
			p.done = true
		}()
		if p.killed {
			panic(killSignal{})
		}
		fn(p)
	})
	e.procs = append(e.procs, p)
	e.ready(0, p)
	return p
}

// dispatch resumes p and returns when p parks again or finishes.  It
// must only be called from event-loop context (an event callback), never
// from inside another process, and it must be the last thing that event
// does: a process that holds (Proc.Hold) returns at a later virtual time,
// so code after dispatch would run at the wrong instant.  runWake,
// ResumeInPlace and Close all end with it.
func (e *Env) dispatch(p *Proc) {
	if p.done {
		return
	}
	prev := e.cur
	e.cur = p
	p.next()
	e.cur = prev
	if p.haspan {
		v := p.panicv
		p.haspan = false
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, v))
	}
}

// park suspends the calling process until something dispatches it again.
func (p *Proc) park() {
	p.yield(struct{}{})
	if p.killed {
		panic(killSignal{})
	}
}

// Park suspends the calling process until a matching Env.Ready or
// Env.ResumeInPlace resumes it.  It is the low-level primitive for
// engine code that keeps its own record of who waits (the CPU's
// grants); most callers want Sleep or a Cond.
func (p *Proc) Park() { p.park() }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.Now() }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	p.env.ready(d, p)
	p.park()
}

// Hold advances the clock by d in place of the n events that would
// otherwise carry the calling process from now to now+d, and reports
// whether it did.  It holds only when nothing else can happen before
// now+d, so skipping the events cannot change event order:
//
//   - p is the running process (a parked process cannot move the clock);
//   - the environment is not stopped (the loop would run nothing more);
//   - no zero-delay event (on the ring, or in a slot armed with zero
//     delay) and no AtInstantEnd callback is pending (both run at the
//     current instant, before anything at now+d);
//   - every queued event is due strictly after now+d (one due at now+d
//     was scheduled earlier, so it would run first);
//   - now+d is within the running loop's deadline (RunUntil, and the
//     parallel engine's RunBefore window bound).
//
// A hold counts the n events in Steps, panics past MaxSteps as the loop
// would, and runs the OnStep observers n times at now+d.  Pending is
// unchanged: the events would have been queued and run.  When Hold
// returns false nothing has changed, and the caller schedules and parks
// as usual.
func (p *Proc) Hold(d Time, n int) bool { return p.env.hold(p, d, n) }
