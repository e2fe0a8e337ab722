package cluster

import (
	"fmt"

	"comb/internal/sim"
)

// Priority is a CPU scheduling class.  Higher priorities preempt lower
// ones; within a priority, grants are FIFO and run to completion (unless
// preempted from above).  This mirrors a uniprocessor OS: interrupt
// handlers preempt kernel work, which preempts the application.
type Priority int

// Scheduling classes, lowest first.
const (
	User Priority = iota
	Kernel
	Interrupt
	numPriorities
)

// String returns the scheduling-class name.
func (p Priority) String() string {
	switch p {
	case User:
		return "user"
	case Kernel:
		return "kernel"
	case Interrupt:
		return "interrupt"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// CPU is a simulated processor complex of one or more identical cores
// shared by application work, kernel processing and interrupt handlers.
// Demands are expressed as amounts of CPU time; a demand finishes once
// some core has devoted that much time to it, however often it was
// preempted or migrated in between.
//
// Scheduling: a pending grant runs on any idle core; if none is idle and a
// lower-priority grant is running somewhere, the lowest-priority (most
// recently started among equals) grant is preempted.  Within a priority,
// dispatch is FIFO.  The single-core case reduces to strict priority
// preemption, the model the COMB availability metric relies on; the
// multi-core case exists to reproduce the paper's §7 observation that the
// metric breaks on SMP nodes.
//
// Grants are pooled: every demand is served by a recycled cpuGrant record,
// and a running grant's completion waits in its core's completion slot
// (sim.Slot), which a preemption moves in place instead of cancelling
// one event and scheduling another.  The per-interrupt scheduling cost is
// therefore allocation-free on the Use and SubmitCall paths.  Submit
// still mints a fresh Event per call — callers hold fired events
// indefinitely, which makes Events unpoolable by construction — so hot
// paths should prefer Use (process-blocking) or SubmitCall (callback).
type CPU struct {
	env        *sim.Env
	name       string
	queues     [numPriorities]grantQueue
	cores      []coreState
	usage      [numPriorities]sim.Time
	free       []*cpuGrant
	completeFn func(any) // bound once; receives the finished *cpuGrant
}

// coreState is one core's current assignment.  A running grant's
// completion is armed in slot.
type coreState struct {
	running   *cpuGrant
	startedAt sim.Time
	slot      sim.Slot
}

// cpuGrant is one outstanding CPU demand.  Exactly one completion channel
// is set: waiter (Use), done (Submit), or fn/arg (SubmitCall); all may be
// nil for fire-and-forget demands.
type cpuGrant struct {
	prio      Priority
	remaining sim.Time
	core      int32 // core index while running, -1 otherwise
	waiter    *sim.Proc
	done      *sim.Event
	fn        func(any)
	arg       any
}

// grantQueue is a FIFO of grants with O(1) front operations: popFront
// advances a head index, and pushFront (preemption requeue) reuses the
// vacated prefix instead of reallocating the backing slice.
type grantQueue struct {
	items []*cpuGrant
	head  int
}

func (q *grantQueue) len() int { return len(q.items) - q.head }

func (q *grantQueue) pushBack(g *cpuGrant) { q.items = append(q.items, g) }

func (q *grantQueue) pushFront(g *cpuGrant) {
	if q.head > 0 {
		q.head--
		q.items[q.head] = g
		return
	}
	q.items = append(q.items, nil)
	copy(q.items[1:], q.items)
	q.items[0] = g
}

func (q *grantQueue) popFront() *cpuGrant {
	g := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return g
}

// NewCPU returns an idle single-core CPU bound to env.
func NewCPU(env *sim.Env, name string) *CPU { return NewSMP(env, name, 1) }

// NewSMP returns an idle CPU complex with cores identical cores.
func NewSMP(env *sim.Env, name string, cores int) *CPU {
	if cores < 1 {
		panic(fmt.Sprintf("cluster: CPU %q needs at least one core, got %d", name, cores))
	}
	c := &CPU{env: env, name: name, cores: make([]coreState, cores)}
	first := env.NewSlots(cores)
	for i := range c.cores {
		c.cores[i].slot = first + sim.Slot(i)
	}
	c.completeFn = c.complete
	return c
}

// Cores returns the number of cores.
func (c *CPU) Cores() int { return len(c.cores) }

// Use consumes d of CPU time at priority prio on behalf of the calling
// process, blocking it until the demand is fully served.  A non-positive
// demand returns immediately.
//
// A quiet demand runs in place: when a core is idle (so no grant waits:
// dispatch fills idle cores first) and nothing else is due before the
// demand ends, the process holds the clock forward by d (sim.Proc.Hold)
// instead of arming the grant's completion and scheduling its wake-up,
// two events that would run back to back.
func (c *CPU) Use(p *sim.Proc, d sim.Time, prio Priority) {
	if d <= 0 {
		return
	}
	if c.idleCore() >= 0 && p.Hold(d, 2) {
		c.usage[prio] += d
		return
	}
	g := c.grant(d, prio)
	g.waiter = p
	c.enqueue(g)
	p.Park()
}

// UseCall is Use for callback chains: it consumes d of CPU time at
// priority prio on behalf of the calling event callback, then the chain
// continues.  A quiet demand (see Use) holds the clock forward by d in
// place (sim.Env.Hold, with no process running) and UseCall returns
// true: the caller continues at once, in the same event, with what fn
// would have done.  Otherwise it submits the demand with fn(arg) as its
// completion (SubmitCall) and returns false, and the caller returns.
// Either way UseCall must be the caller's last action before that
// continuation.  A non-positive demand returns true at once.
func (c *CPU) UseCall(d sim.Time, prio Priority, fn func(any), arg any) bool {
	if d <= 0 {
		return true
	}
	if c.idleCore() >= 0 && c.env.Hold(d, 2) {
		c.usage[prio] += d
		return true
	}
	c.SubmitCall(d, prio, fn, arg)
	return false
}

// Submit enqueues a CPU demand without blocking and returns the event that
// fires when the demand has been fully served.  Callers that only need a
// completion callback should use SubmitCall, which avoids the Event
// allocation.
func (c *CPU) Submit(d sim.Time, prio Priority) *sim.Event {
	ev := c.env.NewEvent()
	if d <= 0 {
		ev.Fire(nil)
		return ev
	}
	g := c.grant(d, prio)
	g.done = ev
	c.enqueue(g)
	return ev
}

// SubmitCall enqueues a CPU demand and arranges for fn(arg) to run (in
// event-loop context, at the completion instant) once it has been fully
// served.  A nil fn makes the demand fire-and-forget: the CPU time is
// consumed and accounted but nothing is notified.  It is the
// allocation-free replacement for Submit(d, prio).OnFire(cb) chains.
func (c *CPU) SubmitCall(d sim.Time, prio Priority, fn func(any), arg any) {
	if d <= 0 {
		if fn != nil {
			c.env.ScheduleCall(0, fn, arg)
		}
		return
	}
	g := c.grant(d, prio)
	g.fn, g.arg = fn, arg
	c.enqueue(g)
}

// grant takes a recycled grant record off the freelist.
func (c *CPU) grant(d sim.Time, prio Priority) *cpuGrant {
	var g *cpuGrant
	if n := len(c.free); n > 0 {
		g = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		g = &cpuGrant{}
	}
	g.prio, g.remaining, g.core = prio, d, -1
	return g
}

// release recycles a retired grant.
func (c *CPU) release(g *cpuGrant) {
	*g = cpuGrant{core: -1}
	c.free = append(c.free, g)
}

func (c *CPU) enqueue(g *cpuGrant) {
	c.queues[g.prio].pushBack(g)
	c.dispatch()
}

// nextWaiting returns (and removes) the highest-priority waiting grant, or
// nil when every queue is empty.
func (c *CPU) nextWaiting() *cpuGrant {
	for prio := numPriorities - 1; prio >= 0; prio-- {
		if c.queues[prio].len() > 0 {
			return c.queues[prio].popFront()
		}
	}
	return nil
}

// highestWaitingPrio returns the priority of the best waiting grant, or -1.
func (c *CPU) highestWaitingPrio() Priority {
	for prio := numPriorities - 1; prio >= 0; prio-- {
		if c.queues[prio].len() > 0 {
			return prio
		}
	}
	return -1
}

// idleCore returns the lowest-indexed idle core, or -1.
func (c *CPU) idleCore() int {
	for i := range c.cores {
		if c.cores[i].running == nil {
			return i
		}
	}
	return -1
}

// dispatch places waiting grants on cores, preempting lower-priority work
// when necessary.  It loops because one call may both fill idle cores and
// trigger preemptions.
func (c *CPU) dispatch() {
	for {
		want := c.highestWaitingPrio()
		if want < 0 {
			return
		}
		// Prefer an idle core (lowest index for determinism).
		if idle := c.idleCore(); idle >= 0 {
			c.start(idle, c.nextWaiting())
			continue
		}
		// Otherwise preempt the lowest-priority running grant, if it is
		// strictly lower than the best waiting one.  Among equals, the
		// most recently started is preempted (it has made the least
		// progress per unit of residual work — and the rule is
		// deterministic).
		victim := -1
		for i := range c.cores {
			g := c.cores[i].running
			if g.prio >= want {
				continue
			}
			if victim < 0 || g.prio < c.cores[victim].running.prio ||
				(g.prio == c.cores[victim].running.prio && c.cores[i].startedAt >= c.cores[victim].startedAt) {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		c.preempt(victim)
		c.start(victim, c.nextWaiting())
	}
}

// start runs g on core i and arms its completion.  After a preemption
// the core's slot is still armed, and arming it again moves it in place.
// A grant preempted with no time left is armed with zero delay: it
// completes at the current instant, behind what the instant has already
// queued.
func (c *CPU) start(i int, g *cpuGrant) {
	core := &c.cores[i]
	core.running = g
	core.startedAt = c.env.Now()
	g.core = int32(i)
	c.env.Arm(core.slot, g.remaining, c.completeFn, g)
}

// preempt pulls core i's grant off the core and puts it back at the front
// of its priority queue with its residual demand.  It leaves the core's
// slot armed: dispatch starts the preempting grant on the same core at
// once, and start moves the slot to that grant's completion.
func (c *CPU) preempt(i int) {
	core := &c.cores[i]
	g := core.running
	elapsed := c.env.Now() - core.startedAt
	g.remaining -= elapsed
	c.usage[g.prio] += elapsed
	core.running = nil
	g.core = -1
	c.queues[g.prio].pushFront(g)
}

// complete retires the finished grant (passed as the slot's argument),
// notifies its completion channel and dispatches further work.
//
// A waiting process or callback is handed the grant in place when its
// zero-delay wake-up would be the very next event anyway
// (sim.Env.NextInPlace): complete then resumes it, or calls it, as its
// last action, after dispatch.  The decision is taken before release
// and dispatch, because dispatch can queue a zero-delay completion (a
// grant preempted with no time left resumes on a core), which must run
// after the hand-off, as it would behind the scheduled wake-up.
func (c *CPU) complete(a any) {
	g := a.(*cpuGrant)
	core := &c.cores[g.core]
	if core.running != g {
		panic("cluster: completion for a grant not running on its core")
	}
	c.usage[g.prio] += c.env.Now() - core.startedAt
	core.running = nil
	waiter, fn, arg := g.waiter, g.fn, g.arg
	inPlace := (waiter != nil || fn != nil) && c.env.NextInPlace()
	switch {
	case inPlace:
	case waiter != nil:
		c.env.Ready(waiter, nil)
	case g.done != nil:
		g.done.Fire(nil)
	case fn != nil:
		c.env.ScheduleCall(0, fn, arg)
	}
	c.release(g)
	c.dispatch()
	switch {
	case !inPlace:
	case waiter != nil:
		c.env.ResumeInPlace(waiter, nil)
	default:
		c.env.CallInPlace(fn, arg)
	}
}

// Usage returns the total CPU time consumed so far at priority prio,
// excluding partially-served running grants.
func (c *CPU) Usage(prio Priority) sim.Time { return c.usage[prio] }

// TotalBusy returns the total CPU time consumed across all priorities and
// cores, excluding partially-served running grants.
func (c *CPU) TotalBusy() sim.Time {
	var t sim.Time
	for _, u := range c.usage {
		t += u
	}
	return t
}

// Busy reports whether any core is serving a grant right now.
func (c *CPU) Busy() bool {
	for i := range c.cores {
		if c.cores[i].running != nil {
			return true
		}
	}
	return false
}

// QueueLen returns the number of waiting (not running) grants at prio.
func (c *CPU) QueueLen(prio Priority) int { return c.queues[prio].len() }
