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
//   - the one cancellable event is a re-keyable slot (Slot): armed slots
//     wait outside the heap, in a small indexed queue of their own, where
//     re-arming moves an entry in place (a CPU core's preempted
//     completion) and disarming removes it (a TCP retransmission timeout
//     whose ack arrived), so the heap only ever removes its root;
//   - process wake-ups ride pooled records through ScheduleCall instead
//     of fresh closures.
//
// Every entry of the heap, the ring and the slot queue carries a key
// (at, seq, sub) drawn from one counter, and the loop runs the entry
// with the smallest key.  Event order is therefore identical to the
// classic heap-of-pointers implementation: earliest timestamp first,
// FIFO by scheduling sequence within a timestamp
// (TestHeapMatchesReferenceOrdering and
// TestHeapSlotsMatchReferenceOrdering prove this against a
// container/heap reference).
type Env struct {
	now     Time
	seq     uint64
	heap    []queued  // future events, 4-ary min-heap by (at, seq, sub)
	cslots  []cslot   // completion slots, addressed by Slot
	cq      []slotKey // armed slots' keys, binary min-heap
	ring    []queued  // zero-delay events at the current instant, FIFO
	ringPop int       // consumed prefix of ring
	pending int       // scheduled and not yet executed or disarmed
	procs   []*Proc
	cur     *Proc
	steps   uint64
	stopped bool

	// Queue work counters (QueueStats).
	pushes, arms, rekeys uint64

	// peak is the most events pending at any step; overAt and overDepth
	// record the first step at which pending exceeded PendingLimit
	// (overDepth is 0 until then).
	peak      int
	overAt    Time
	overDepth int

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

	// PendingLimit, when non-zero, makes the environment record the first
	// step at which Pending exceeds it (PendingOver).  Unlike MaxSteps it
	// does not stop the run: the invariant checker reports it afterwards.
	PendingLimit int

	// onStep observers run after the clock advances to each executed
	// or held event's timestamp, before the event body.  They must only
	// read state.
	onStep []func(at Time)

	// instEnd holds one-shot callbacks that fire when the dispatch loop
	// is about to leave the current instant (or the queue drains).  See
	// AtInstantEnd.
	instEnd []func()

	wakes  []*wakeRec // pooled process wake-up records
	wakeFn func(any)  // bound once: runs a wakeRec and recycles it
}

// key orders pending events: by timestamp, FIFO within a timestamp.  sub
// breaks ties below seq; the serial engine never sets it, so for it the
// order is exactly the historic (at, seq) one, while partition
// environments use (at, birth seq, partition sub) so that events merged
// from other partitions sort deterministically among local ones.
type key struct {
	at       Time
	seq, sub uint64
}

func (a *key) less(b *key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.sub < b.sub
}

// queued is one pending event-queue entry: fn(arg) runs at key.at.  A
// pre-bound method value plus argument lets hot callers schedule without
// allocating a fresh closure per event; Schedule's func() rides as the
// argument of callFunc.
type queued struct {
	key
	fn  func(any)
	arg any
}

// callFunc runs a Schedule callback.  A func value is pointer-shaped, so
// carrying it as an any does not allocate.
func callFunc(a any) { a.(func())() }

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

// stamp draws the key of an event due after delay, as every scheduling
// path does: heap entries, ring entries and slot arms share one sequence
// counter, so their keys order across all three.
func (e *Env) stamp(delay Time) key {
	e.seq++
	if e.partStamp != 0 {
		// Partition stamping: order by birth instant first, then by
		// (partition, local sequence).  Within one environment this is
		// the same relative order as the serial global sequence — birth
		// times and local sequence numbers are both monotone in
		// scheduling order — but it gives cross-partition merges a
		// deterministic total order that no single global counter could.
		return key{e.now + delay, uint64(e.now), e.partStamp | e.seq}
	}
	return key{at: e.now + delay, seq: e.seq}
}

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
	e.pushes++
	e.heap = append(e.heap, queued{key: key{at, seq, sub}, fn: fn, arg: arg})
	e.siftUp(len(e.heap) - 1)
}

// PeekTime returns the timestamp of the earliest queued event and whether
// one exists.  Between windows the ring is always empty, so this is the
// earlier of the heap's and the slot queue's heads, and both hold only
// live events (Disarm removes its slot's entry); it is what the window
// scheduler folds across partitions to pick the next window's base
// time.
func (e *Env) PeekTime() (Time, bool) {
	if e.ringPop < len(e.ring) {
		return e.now, true
	}
	if k, _ := e.next(); k != nil {
		return k.at, true
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
// disarmed.
func (e *Env) Pending() int { return e.pending }

// PeakPending reports the largest Pending seen at an executed step: after
// the clock advanced to the step's instant, before its body ran.  Held
// and in-place steps count, as the loop's do.
func (e *Env) PeakPending() int { return e.peak }

// PendingOver reports the first step at which Pending exceeded
// PendingLimit: its instant and the depth then.  ok is false if that has
// not happened, or no limit is set.
func (e *Env) PendingOver() (at Time, depth int, ok bool) {
	return e.overAt, e.overDepth, e.overDepth > 0
}

// QueueStats counts the event queue's work since the environment was
// made.  Zero-delay Schedule and ScheduleCall events take the ring and
// appear in none of them; a slot armed with zero delay is an arm.
type QueueStats struct {
	Pushes uint64 // entries pushed onto the heap
	Arms   uint64 // slot arms, re-keys included
	Rekeys uint64 // arms of a slot that was already armed
}

// QueueStats reports the queue work counters.
func (e *Env) QueueStats() QueueStats {
	return QueueStats{Pushes: e.pushes, Arms: e.arms, Rekeys: e.rekeys}
}

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
// simulation: they exist for passive monitoring in tests.  The invariant
// checker needs none, since the environment keeps the pending peak
// itself (PeakPending, PendingOver).  Multiple observers run in
// registration order.
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
	if e.ringPop < len(e.ring) || e.dueBy(mark) {
		panic("sim: instant-end callback scheduled an event at the closed instant")
	}
}

// Schedule arranges for fn to run at Now()+delay.  A negative delay
// panics.  The callback cannot be cancelled; arm a Slot when
// cancellation is needed.  Schedule performs no allocation.
func (e *Env) Schedule(delay Time, fn func()) {
	e.push(delay, callFunc, fn)
}

// ScheduleCall arranges for fn(arg) to run at Now()+delay.  It is the
// allocation-free form for hot paths: the caller passes a pre-bound
// method value (created once) plus a pooled or pointer-shaped argument,
// instead of capturing state in a fresh closure per event.
func (e *Env) ScheduleCall(delay Time, fn func(any), arg any) {
	e.push(delay, fn, arg)
}

// push enqueues one event.  Zero-delay events take the ring fast path:
// they belong to the current instant, and the loop orders them against
// the heap and slot heads by key.
func (e *Env) push(delay Time, fn func(any), arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.pending++
	q := queued{key: e.stamp(delay), fn: fn, arg: arg}
	if delay == 0 {
		e.ring = append(e.ring, q)
		return
	}
	e.pushes++
	e.heap = append(e.heap, q)
	e.siftUp(len(e.heap) - 1)
}

// siftUp restores the 4-ary heap property from leaf i upward.
func (e *Env) siftUp(i int) {
	h := e.heap
	q := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !q.less(&h[parent].key) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = q
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
			if h[c].less(&h[best].key) {
				best = c
			}
		}
		if !h[best].less(&q.key) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = q
}

// popHeap removes and returns the earliest heap entry: the last entry
// takes the root's place and sifts down.
func (e *Env) popHeap() queued {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = queued{} // release closure/arg references
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return top
}

// popRing consumes the ring's oldest entry, compacting the ring once it
// drains.
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

// Where the loop takes its next event from.
const (
	fromNone = iota
	fromRing
	fromHeap
	fromSlot
)

// next returns the key of whichever of the heap's and the slot queue's
// first entries sorts first, and where it is; nil and fromNone mean both
// are empty.
func (e *Env) next() (*key, int) {
	if len(e.cq) > 0 {
		if k := &e.cq[0].key; len(e.heap) == 0 || k.less(&e.heap[0].key) {
			return k, fromSlot
		}
	}
	if len(e.heap) > 0 {
		return &e.heap[0].key, fromHeap
	}
	return nil, fromNone
}

// dueBy reports whether a heap entry or an armed slot is due at or
// before t.
func (e *Env) dueBy(t Time) bool {
	return len(e.heap) > 0 && e.heap[0].at <= t || len(e.cq) > 0 && e.cq[0].at <= t
}

// run is the dispatch loop.  It runs the ring head unless the heap or
// slot head has a smaller key.  Ring entries all belong to the current
// instant, so that head sorts first only when it is due now: a heap
// entry or a slot armed before the clock reached this instant (its
// sequence number is smaller than every ring entry's), or a slot armed
// with zero delay during it, which sorts among the ring entries by the
// sequence number it drew.  The ring drains completely before the clock
// may advance.
func (e *Env) run(deadline Time) {
	e.deadline = deadline
	for !e.stopped {
		k, src := e.next()
		switch {
		case e.ringPop < len(e.ring):
			if deadline >= 0 && e.now > deadline {
				return
			}
			if k == nil || !k.less(&e.ring[e.ringPop].key) {
				src = fromRing
			}
		case k != nil:
			if len(e.instEnd) > 0 && k.at > e.now {
				e.runInstEnd()
				continue
			}
			if deadline >= 0 && k.at > deadline {
				return
			}
		default:
			if len(e.instEnd) > 0 {
				e.runInstEnd()
				continue
			}
			return
		}
		var q queued
		switch src {
		case fromHeap:
			q = e.popHeap()
		case fromSlot:
			q = e.popSlot()
		default:
			q = e.popRing()
		}
		if q.at < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = q.at
		e.pending--
		e.step()
		q.fn(q.arg)
	}
}

// step counts one event executed at the current instant, enforces
// MaxSteps, tracks the pending peak and runs the OnStep observers.  A
// hold calls it once per event it stands in for, and an in-place
// hand-off once.
func (e *Env) step() {
	e.steps++
	if e.MaxSteps != 0 && e.steps > e.MaxSteps {
		panic(fmt.Sprintf("sim: exceeded MaxSteps=%d at t=%v (livelock?)", e.MaxSteps, e.now))
	}
	if e.pending > e.peak {
		e.peak = e.pending
		if e.PendingLimit > 0 && e.pending > e.PendingLimit && e.overDepth == 0 {
			e.overAt, e.overDepth = e.now, e.pending
		}
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
		e.dueBy(at) || (e.deadline >= 0 && at > e.deadline) {
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
//   - no heap entry or armed slot is due now (one due now was scheduled
//     earlier).
//
// Events the caller schedules between NextInPlace and the hand-off draw
// later sequence numbers, so they run after it either way.  A pending
// AtInstantEnd callback does not matter: it runs once the instant's
// events are done, after the hand-off either way.  When NextInPlace
// returns false nothing has changed, and the caller schedules the event.
func (e *Env) NextInPlace() bool {
	if e.cur != nil || e.stopped || e.ringPop < len(e.ring) || e.dueBy(e.now) {
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
	e.cslots = nil
	e.cq = nil
	e.ring = nil
	e.ringPop = 0
	e.pending = 0
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
