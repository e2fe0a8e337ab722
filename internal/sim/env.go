package sim

import "fmt"

// Env is a single-threaded discrete-event simulation environment.
//
// All scheduling and process interaction must happen from the goroutine
// that calls Run (directly, or transitively from a process the event loop
// has dispatched).  Env is not safe for concurrent use.
//
// The event core is the simulator's inner kernel, so its data structures
// are built for zero steady-state allocation:
//
//   - pending events live in a value-typed 4-ary min-heap (no per-event
//     box, wide nodes for cache-friendly sift paths);
//   - zero-delay events — the dominant class: wakeups, event fires,
//     delivery hand-offs at the current instant — bypass the heap through
//     a FIFO ring;
//   - cancellable timers borrow slots from a freelist and are addressed
//     by generation-checked value handles, so stale handles are inert,
//     and a stopped timer leaves the heap at once;
//   - process wake-ups ride pooled records through ScheduleCall instead
//     of fresh closures.
//
// Event order is identical to the classic heap-of-pointers
// implementation: earliest timestamp first, FIFO by insertion sequence
// within a timestamp (TestHeapMatchesReferenceOrdering proves this
// against a container/heap reference).
type Env struct {
	now     Time
	seq     uint64
	heap    []queued // future events, 4-ary min-heap by (at, seq, sub)
	ring    []queued // zero-delay events at the current instant, FIFO
	ringPop int      // consumed prefix of ring
	pending int      // scheduled and not yet executed or cancelled
	procs   []*Proc
	cur     *Proc
	steps   uint64
	stopped bool

	// deadline is the running loop's last executable timestamp, or -1
	// when it runs until the queue drains.  A hold must not carry the
	// clock past it.
	deadline Time

	// partStamp, when non-zero, switches event stamping from the serial
	// (global sequence) scheme to the partition scheme of the parallel
	// engine: heap entries carry (birth instant, partition|local seq)
	// instead of (global seq, 0).  See NewPartitionEnv.
	partStamp uint64

	// MaxSteps, when non-zero, bounds the number of executed events.  It is
	// a safety valve against accidental livelock (for example a process
	// that re-schedules itself at zero delay forever); exceeding it panics.
	MaxSteps uint64

	// onStep observers run after the clock advances to each executed
	// or held event's timestamp, before the event body.  They must only
	// read state (the invariant checker hooks here).
	onStep []func(at Time)

	// instEnd holds one-shot callbacks that fire when the dispatch loop
	// is about to leave the current instant (or the queue drains).  See
	// AtInstantEnd.
	instEnd []func()

	slots     []timerSlot // cancellable-timer slots, addressed by Timer handles
	freeSlots []int32

	wakes  []*wakeRec // pooled process wake-up records
	wakeFn func(any)  // bound once: runs a wakeRec and recycles it
}

// queued is one pending event-queue entry.  Exactly one of fn and fn1 is
// set; fn1 receives arg, which lets hot callers schedule a pre-bound
// method value plus argument instead of allocating a fresh closure per
// event.  tidx is the entry's timer slot, or -1 for the (common)
// non-cancellable case.
type queued struct {
	at   Time
	seq  uint64
	sub  uint64 // tie-break below seq; always 0 in the serial engine
	fn   func()
	fn1  func(any)
	arg  any
	tidx int32
}

// timerSlot backs one live cancellable timer.  gen increments every time
// the slot is recycled, so Timer handles from earlier lives fail their
// generation check instead of cancelling an unrelated event.
type timerSlot struct {
	gen   uint32
	where uint8 // qNone, qHeap or qRing
	pos   int32 // index into heap or ring while queued
}

const (
	qNone uint8 = iota
	qHeap
	qRing
)

// NewEnv returns an empty environment at virtual time zero.
func NewEnv() *Env {
	e := &Env{MaxSteps: 1 << 34}
	e.wakeFn = e.runWake
	return e
}

// NewPartitionEnv returns an environment that stamps events for the
// parallel engine's cross-partition merge: heap entries order by (at,
// birth instant, partition|local seq) instead of (at, global seq).  part
// is the zero-based partition index; the stamp keeps partition bits above
// bit 40, leaving 2^40 local sequence numbers — far beyond the MaxSteps
// safety valve.  Each partition environment is still strictly
// single-threaded; the Windows scheduler guarantees only one goroutine
// touches it at a time.
func NewPartitionEnv(part int) *Env {
	if part < 0 || part >= 1<<23 {
		panic(fmt.Sprintf("sim: partition index %d out of range", part))
	}
	e := NewEnv()
	e.partStamp = uint64(part+1) << 40
	return e
}

// Partitioned reports whether this environment uses partition stamping.
func (e *Env) Partitioned() bool { return e.partStamp != 0 }

// MailStamp draws a (seq, sub) stamp for an outbound cross-partition
// message.  The stamp comes from the same counter as local events, so a
// merged delivery sorts against the destination's local events exactly
// where the serial engine's globally-sequenced delivery event would:
// after everything born earlier, before everything born later, with the
// partition index breaking same-instant ties deterministically.  Only
// valid on partition environments.
func (e *Env) MailStamp() (seq, sub uint64) {
	e.seq++
	return uint64(e.now), e.partStamp | e.seq
}

// ScheduleStamped inserts an event at absolute time at carrying an
// explicit (seq, sub) stamp — the merge-side counterpart of MailStamp.
// It is called between windows by the merge phase, never from inside a
// running event, and at must not be in the past (conservative lookahead
// guarantees merged deliveries land at or beyond the window bound).
func (e *Env) ScheduleStamped(at Time, seq, sub uint64, fn func(any), arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: stamped event at t=%v is before now=%v", at, e.now))
	}
	e.pending++
	e.heap = append(e.heap, queued{at: at, seq: seq, sub: sub, fn1: fn, arg: arg, tidx: -1})
	e.siftUp(len(e.heap) - 1)
}

// PeekTime returns the timestamp of the earliest queued event and whether
// one exists.  Between windows the ring is always empty, so this is the
// heap minimum, and the heap holds only live events (Timer.Stop removes
// its entry); it is what the window scheduler folds across partitions to
// pick the next window's base time.
func (e *Env) PeekTime() (Time, bool) {
	if e.ringPop < len(e.ring) {
		return e.now, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, true
	}
	return 0, false
}

// RunBefore executes every event with timestamp strictly below bound and
// returns with the ring drained (events at an executed instant always run
// to completion before the clock can pass it).  It is the window body of
// the parallel engine: all remaining events are >= bound afterwards, so
// event births across successive windows are globally monotone.
func (e *Env) RunBefore(bound Time) {
	if bound <= 0 {
		return
	}
	e.run(bound - 1)
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Steps reports how many events have executed so far.
func (e *Env) Steps() uint64 { return e.steps }

// Cur returns the process currently being executed, or nil when the event
// loop itself is running a plain callback.
func (e *Env) Cur() *Proc { return e.cur }

// Pending reports how many events are queued but not yet executed or
// cancelled.
func (e *Env) Pending() int { return e.pending }

// Stop makes the event loop return before dispatching the next event.
// Queued events stay queued and parked processes stay parked; Close still
// tears everything down.  Stop is the cancellation hook for callers that
// drive Run under a context: it may be called from within an executing
// event.  A stopped environment stays stopped.
func (e *Env) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Env) Stopped() bool { return e.stopped }

// OnStep registers an observer called once per executed event with the
// event's timestamp, after the clock has advanced to it and before the
// event body runs.  Events that Proc.Hold and Env.Hold stand in for
// count as executed: the observers see each of them at the held-to time,
// called from inside the holding process or callback.  So does an event
// run in place (NextInPlace), seen from inside the callback that hands
// it off.  Observers must not schedule, spawn, or otherwise mutate the
// simulation: they exist for passive monitoring (the invariant checker).
// Multiple observers run in registration order.
func (e *Env) OnStep(fn func(at Time)) { e.onStep = append(e.onStep, fn) }

// AtInstantEnd registers a one-shot callback that runs after every event
// at the current instant has executed, before the clock advances past it
// (or when the queue drains).  Callbacks may schedule new events, but
// only at strictly later instants; scheduling at the current instant
// would reopen an instant the loop has already closed and panics.
//
// The fabric uses this to batch the receive-side resource claims of every
// message born in one instant and replay them in a deterministic global
// order — the same order the parallel engine's merge phase uses — instead
// of the incidental order in which the send events happened to execute.
func (e *Env) AtInstantEnd(fn func()) {
	e.instEnd = append(e.instEnd, fn)
}

// runInstEnd drains and runs the registered instant-end callbacks.  The
// slice is detached first so callbacks registering follow-ups (for later
// instants) do not grow the batch being drained.
func (e *Env) runInstEnd() {
	fns := e.instEnd
	e.instEnd = nil
	mark := e.now
	for i, fn := range fns {
		fns[i] = nil
		fn()
	}
	if e.instEnd == nil {
		e.instEnd = fns[:0]
	}
	if e.ringPop < len(e.ring) || (len(e.heap) > 0 && e.heap[0].at <= mark) {
		panic("sim: instant-end callback scheduled an event at the closed instant")
	}
}

// Schedule arranges for fn to run at Now()+delay.  A negative delay
// panics.  The callback cannot be cancelled; use ScheduleTimer when
// cancellation is needed.  Schedule performs no allocation.
func (e *Env) Schedule(delay Time, fn func()) {
	e.push(delay, fn, nil, nil, -1)
}

// ScheduleCall arranges for fn(arg) to run at Now()+delay.  It is the
// allocation-free form for hot paths: the caller passes a pre-bound
// method value (created once) plus a pooled or pointer-shaped argument,
// instead of capturing state in a fresh closure per event.
func (e *Env) ScheduleCall(delay Time, fn func(any), arg any) {
	e.push(delay, nil, fn, arg, -1)
}

// ScheduleTimer is Schedule returning a Timer that can cancel the
// callback before it fires.  The timer's bookkeeping slot comes from a
// freelist, so steady-state scheduling stays allocation-free.
func (e *Env) ScheduleTimer(delay Time, fn func()) Timer {
	idx := e.allocSlot()
	t := Timer{env: e, idx: idx, gen: e.slots[idx].gen, when: e.now + delay}
	e.push(delay, fn, nil, nil, idx)
	return t
}

// ScheduleTimerCall is ScheduleCall returning a cancellation handle.
func (e *Env) ScheduleTimerCall(delay Time, fn func(any), arg any) Timer {
	idx := e.allocSlot()
	t := Timer{env: e, idx: idx, gen: e.slots[idx].gen, when: e.now + delay}
	e.push(delay, nil, fn, arg, idx)
	return t
}

// push enqueues one event.  Zero-delay events take the ring fast path:
// they belong to the current instant, and the heap-order invariant
// (below) guarantees every heap entry sharing that timestamp was
// scheduled earlier, so FIFO order across both structures falls out of a
// single timestamp comparison in the run loop.
func (e *Env) push(delay Time, fn func(), fn1 func(any), arg any, tidx int32) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.seq++
	e.pending++
	q := queued{at: e.now + delay, seq: e.seq, fn: fn, fn1: fn1, arg: arg, tidx: tidx}
	if e.partStamp != 0 {
		// Partition stamping: order by birth instant first, then by
		// (partition, local sequence).  Within one environment this is
		// the same relative order as the serial global sequence — birth
		// times and local sequence numbers are both monotone in
		// scheduling order — but it gives cross-partition merges a
		// deterministic total order that no single global counter could.
		q.seq, q.sub = uint64(e.now), e.partStamp|e.seq
	}
	if delay == 0 {
		if tidx >= 0 {
			s := &e.slots[tidx]
			s.where, s.pos = qRing, int32(len(e.ring))
		}
		e.ring = append(e.ring, q)
		return
	}
	e.heap = append(e.heap, q)
	if tidx >= 0 {
		s := &e.slots[tidx]
		s.where, s.pos = qHeap, int32(len(e.heap)-1)
	}
	e.siftUp(len(e.heap) - 1)
}

// allocSlot takes a timer slot off the freelist, growing the arena when
// empty.
func (e *Env) allocSlot() int32 {
	if n := len(e.freeSlots); n > 0 {
		idx := e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		return idx
	}
	e.slots = append(e.slots, timerSlot{})
	return int32(len(e.slots) - 1)
}

// freeSlot recycles a slot, invalidating all outstanding handles to its
// current life.
func (e *Env) freeSlot(idx int32) {
	s := &e.slots[idx]
	s.gen++
	s.where = qNone
	e.freeSlots = append(e.freeSlots, idx)
}

// less orders entries by timestamp, FIFO within a timestamp.  The serial
// engine never sets sub, so for it the comparison is exactly the historic
// (at, seq) order; partition environments use (at, birth seq, partition
// sub) so that events merged from other partitions sort deterministically
// among local ones.
func (a *queued) less(b *queued) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.sub < b.sub
}

// movedTo records entry i's new heap position in its timer slot, if any.
func (e *Env) movedTo(i int) {
	if t := e.heap[i].tidx; t >= 0 {
		e.slots[t].pos = int32(i)
	}
}

// siftUp restores the 4-ary heap property from leaf i upward.
func (e *Env) siftUp(i int) {
	h := e.heap
	q := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !q.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		e.movedTo(i)
		i = parent
	}
	h[i] = q
	e.movedTo(i)
}

// siftDown restores the 4-ary heap property from entry i downward.
func (e *Env) siftDown(i int) {
	h := e.heap
	n := len(h)
	q := h[i]
	for {
		first := i<<2 + 1 // leftmost child
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].less(&h[best]) {
				best = c
			}
		}
		if !h[best].less(&q) {
			break
		}
		h[i] = h[best]
		e.movedTo(i)
		i = best
	}
	h[i] = q
	e.movedTo(i)
}

// popHeap removes and returns the earliest heap entry.
func (e *Env) popHeap() queued {
	top := e.heap[0]
	e.removeHeap(0)
	return top
}

// removeHeap deletes heap entry i.  The last entry takes its place and
// sifts up if it now sorts before its parent, down otherwise.
func (e *Env) removeHeap(i int) {
	h := e.heap
	n := len(h) - 1
	h[i] = h[n]
	h[n] = queued{} // release closure/arg references
	e.heap = h[:n]
	if i == n {
		return
	}
	if i > 0 && h[i].less(&h[(i-1)>>2]) {
		e.siftUp(i)
	} else {
		e.siftDown(i)
	}
}

// popRing consumes the ring's oldest entry, compacting the ring once it
// drains so slot positions stay valid while any entry is live.
func (e *Env) popRing() queued {
	q := e.ring[e.ringPop]
	e.ring[e.ringPop] = queued{}
	e.ringPop++
	if e.ringPop == len(e.ring) {
		e.ring = e.ring[:0]
		e.ringPop = 0
	}
	return q
}

// Run executes events until the queue drains.  It panics if MaxSteps is
// exceeded, and re-raises any panic that escapes a process.
func (e *Env) Run() { e.run(-1) }

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline.  Events scheduled beyond the deadline remain queued.
func (e *Env) RunUntil(deadline Time) {
	e.run(deadline)
	if e.now < deadline {
		e.now = deadline
	}
}

// run is the dispatch loop.  Invariant: a heap entry can share the
// current instant's timestamp only if it was scheduled before the clock
// reached that instant (a positive delay lands strictly in the future,
// and zero delays go to the ring) — so such an entry's sequence number is
// strictly smaller than every ring entry's and it must run first.  The
// ring otherwise drains completely before the clock may advance.
func (e *Env) run(deadline Time) {
	e.deadline = deadline
	for !e.stopped {
		var q queued
		if e.ringPop < len(e.ring) {
			if deadline >= 0 && e.now > deadline {
				return
			}
			if len(e.heap) > 0 && e.heap[0].at == e.now {
				q = e.popHeap()
			} else {
				q = e.popRing()
			}
		} else if len(e.heap) > 0 {
			if len(e.instEnd) > 0 && e.heap[0].at > e.now {
				e.runInstEnd()
				continue
			}
			if deadline >= 0 && e.heap[0].at > deadline {
				return
			}
			q = e.popHeap()
		} else {
			if len(e.instEnd) > 0 {
				e.runInstEnd()
				continue
			}
			return
		}
		if q.fn == nil && q.fn1 == nil {
			continue // a ring entry cancelled in place by Timer.Stop
		}
		if q.tidx >= 0 {
			e.freeSlot(q.tidx)
		}
		if q.at < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = q.at
		e.pending--
		e.step()
		if q.fn != nil {
			q.fn()
		} else {
			q.fn1(q.arg)
		}
	}
}

// step counts one event executed at the current instant, enforces
// MaxSteps and runs the OnStep observers.  A hold calls it once per
// event it stands in for, and an in-place hand-off once.
func (e *Env) step() {
	e.steps++
	if e.MaxSteps != 0 && e.steps > e.MaxSteps {
		panic(fmt.Sprintf("sim: exceeded MaxSteps=%d at t=%v (livelock?)", e.MaxSteps, e.now))
	}
	for _, obs := range e.onStep {
		obs(e.now)
	}
}

// Hold is Proc.Hold for an event callback: it advances the clock by d
// in place of the n events that would otherwise carry the callback's
// chain from now to now+d, and reports whether it did.  It holds under
// Proc.Hold's conditions, with "no process is running" (the caller is a
// plain callback run by the loop) in place of "the caller is the running
// process", and counts the n events the same way.  When it returns
// false nothing has changed, and the caller schedules its continuation
// as usual.
func (e *Env) Hold(d Time, n int) bool { return e.hold(nil, d, n) }

// hold is the quiet-hold predicate and action that Proc.Hold and
// Env.Hold share.  caller is the process that must be running, or nil
// when the caller is a plain callback and no process may be running.
func (e *Env) hold(caller *Proc, d Time, n int) bool {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	at := e.now + d
	if e.cur != caller || e.stopped || e.ringPop < len(e.ring) || len(e.instEnd) > 0 ||
		(len(e.heap) > 0 && e.heap[0].at <= at) || (e.deadline >= 0 && at > e.deadline) {
		return false
	}
	e.now = at
	for ; n > 0; n-- {
		e.step()
	}
	return true
}

// NextInPlace reports whether an event scheduled now with zero delay
// would be the very next event the loop runs, and if so takes the
// sequence number that event would have drawn.  It is the first half of
// an in-place hand-off: the caller finishes its own work and then, as
// its last action, runs the would-be event's body with CallInPlace or
// ResumeInPlace instead of scheduling it.  The hand-off runs at the same
// instant and in the same order as the event would have, and counts as
// one step.
//
// The event would run next only when:
//
//   - no process is running (the caller is a plain callback run by the
//     loop, whose next action would be to pick the next event);
//   - the environment is not stopped (the loop would run nothing more);
//   - the ring is empty (a zero-delay event already queued runs first);
//   - no heap entry is due now (one due now was scheduled earlier).
//
// Events the caller schedules between NextInPlace and the hand-off draw
// later sequence numbers, so they run after it either way.  A pending
// AtInstantEnd callback does not matter: it runs once the instant's
// events are done, after the hand-off either way.  When NextInPlace
// returns false nothing has changed, and the caller schedules the event.
func (e *Env) NextInPlace() bool {
	if e.cur != nil || e.stopped || e.ringPop < len(e.ring) || (len(e.heap) > 0 && e.heap[0].at <= e.now) {
		return false
	}
	e.seq++
	return true
}

// CallInPlace runs fn(arg) as the event NextInPlace stood in for: it
// counts one step, panicking past MaxSteps as the loop would, runs the
// OnStep observers at the current instant and calls fn.
func (e *Env) CallInPlace(fn func(any), arg any) {
	e.step()
	fn(arg)
}

// ResumeInPlace resumes parked process p with wake-up value v as the
// event NextInPlace stood in for, counting one step as CallInPlace does.
func (e *Env) ResumeInPlace(p *Proc, v any) {
	e.step()
	e.dispatch(p, v)
}

// Close terminates every parked process so their goroutines exit, then
// clears the pending event queue so queued callbacks (and everything
// they capture — packets, buffers, procs) are released immediately
// rather than retained by a dead environment.  The environment must not
// be used afterwards.  Close is idempotent.
func (e *Env) Close() {
	for _, p := range e.procs {
		if !p.done {
			e.dispatch(p, killSignal{})
		}
	}
	e.procs = nil
	e.heap = nil
	e.ring = nil
	e.ringPop = 0
	e.pending = 0
	e.slots = nil
	e.freeSlots = nil
	e.wakes = nil
	e.instEnd = nil
}

// wakeRec is a pooled "resume this process with this value" record.
type wakeRec struct {
	p *Proc
	v any
}

// ready schedules parked process p to resume with v after delay, using a
// pooled record instead of a fresh closure.
func (e *Env) ready(delay Time, p *Proc, v any) {
	var w *wakeRec
	if n := len(e.wakes); n > 0 {
		w = e.wakes[n-1]
		e.wakes = e.wakes[:n-1]
	} else {
		w = &wakeRec{}
	}
	w.p, w.v = p, v
	e.ScheduleCall(delay, e.wakeFn, w)
}

// Ready schedules a zero-delay resumption of parked process p with
// wake-up value v — the allocation-free building block for engine-level
// code (CPU scheduler, event fan-out) that would otherwise capture p in
// a closure per wake.  p must be parked (or about to park) and not
// already have a pending resumption.
func (e *Env) Ready(p *Proc, v any) { e.ready(0, p, v) }

// runWake resumes a wake record's process and recycles the record.
func (e *Env) runWake(a any) {
	w := a.(*wakeRec)
	p, v := w.p, w.v
	w.p, w.v = nil, nil
	e.wakes = append(e.wakes, w)
	e.dispatch(p, v)
}

// Timer identifies a scheduled callback and allows cancelling it.  It is
// a value handle into the environment's timer-slot arena: the zero Timer
// is valid and inert, handles may be copied freely, and a handle whose
// event already fired (or was stopped) safely does nothing.
type Timer struct {
	env  *Env
	idx  int32
	gen  uint32
	when Time
}

// When returns the virtual time the timer was scheduled for.
func (t Timer) When() Time { return t.when }

// Active reports whether the callback is still queued: not yet fired and
// not stopped.
func (t Timer) Active() bool {
	return t.env != nil && int(t.idx) < len(t.env.slots) && t.env.slots[t.idx].gen == t.gen
}

// Stop cancels the callback.  It reports whether the cancellation took
// effect (false if the callback already ran or was already stopped).
// Stopping drops the callback and its captures immediately.  A heap
// entry is removed through the slot's back-pointer: the last entry takes
// its place and sifts, so the heap holds only live events and PeekTime
// is exact.  A zero-delay entry on the ring is cancelled in place and
// skipped when the loop reaches it.
func (t Timer) Stop() bool {
	e := t.env
	if e == nil || int(t.idx) >= len(e.slots) {
		return false
	}
	s := &e.slots[t.idx]
	if s.gen != t.gen {
		return false
	}
	switch s.where {
	case qHeap:
		e.removeHeap(int(s.pos))
	case qRing:
		q := &e.ring[s.pos]
		q.fn, q.fn1, q.arg, q.tidx = nil, nil, nil, -1
	}
	e.pending--
	e.freeSlot(t.idx)
	return true
}
