package sim

// Event is a one-shot condition variable in virtual time.  Processes block
// on it with Proc.Await / Proc.AwaitAny; plain callbacks subscribe with
// OnFire.  An event fires exactly once; firing twice panics.
//
// The first waiting process is kept inline, so an event with one waiter,
// the common case, allocates nothing when a process awaits it.
type Event struct {
	env     *Env
	fired   bool
	val     any
	first   *Proc   // the first waiter, woken first
	waiters []*Proc // the waiters after first, in arrival order
	cbs     []func(any)
}

// NewEvent returns an unfired event bound to the environment.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Value returns the value the event fired with (nil before firing).
func (ev *Event) Value() any { return ev.val }

// Fire marks the event fired with val and schedules every waiter and
// callback to run at the current instant (after the currently executing
// event completes, preserving determinism).
func (ev *Event) Fire(val any) {
	if ev.fired {
		panic("sim: event fired twice")
	}
	ev.fired = true
	ev.val = val
	first, waiters := ev.first, ev.waiters
	ev.first, ev.waiters = nil, nil
	cbs := ev.cbs
	ev.cbs = nil
	if first != nil {
		ev.env.ready(0, first, val)
	}
	for _, w := range waiters {
		ev.env.ready(0, w, val)
	}
	for _, cb := range cbs {
		ev.env.ScheduleCall(0, cb, val)
	}
}

// OnFire registers cb to run (in event-loop context) when the event fires.
// If the event already fired, cb is scheduled immediately.
func (ev *Event) OnFire(cb func(any)) {
	if ev.fired {
		ev.env.ScheduleCall(0, cb, ev.val)
		return
	}
	ev.cbs = append(ev.cbs, cb)
}
