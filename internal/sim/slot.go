package sim

import (
	"fmt"
	"slices"
)

// Slot names one re-keyable slot of an Env (see NewSlots): the
// environment's one cancellable event.
//
// A slot holds at most one pending callback.  Arming an armed slot moves
// its entry to the new key in place, which is what a CPU core needs: its
// completion is re-armed every time an interrupt preempts the grant it
// runs, and that is one sift in a queue that holds one entry per busy
// core.  Disarm cancels the callback, which is what a TCP retransmission
// timeout needs when its ack arrives.
//
// Armed slots wait in a small indexed binary heap of their own, beside
// the event heap and the zero-delay ring.  Its entries carry the same
// (at, seq, sub) keys as heap and ring entries, drawn from the same
// counter, and the loop runs whichever head sorts first, so an event
// runs at the same instant and in the same order whether it was
// scheduled or armed.
type Slot int32

// cslot is one slot: while armed, it holds its callback and pos is the
// index of its key in Env.cq; pos is -1 while disarmed.
type cslot struct {
	fn  func(any)
	arg any
	pos int32
}

// slotKey is one armed slot's entry in the slot queue: its key, kept
// inline so that sifting compares without a lookup, and the slot.
type slotKey struct {
	key
	slot Slot
}

// NewSlots adds n disarmed slots and returns the first; the others
// follow it in order.  The slot queue grows with them, so arming never
// allocates.
func (e *Env) NewSlots(n int) Slot {
	first := Slot(len(e.cslots))
	for range n {
		e.cslots = append(e.cslots, cslot{pos: -1})
	}
	e.cq = slices.Grow(e.cq, len(e.cslots)-len(e.cq))
	return first
}

// Arm schedules fn(arg) to run at Now()+delay in slot s.  It draws its
// key, and counts as pending, exactly as ScheduleCall would.  If s is
// already armed, its callback is replaced and its entry moves to the new
// key in place: the same event order as cancelling the old event and
// scheduling a new one.
//
// A zero delay is allowed.  The slot is then due at the current instant
// with a key drawn during it, so it runs after the ring entries already
// queued for the instant and before those queued after the arm, as a
// zero-delay ScheduleCall would.  A negative delay panics.
func (e *Env) Arm(s Slot, delay Time, fn func(any), arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: slot armed with negative delay %v", delay))
	}
	if fn == nil {
		panic("sim: slot armed with a nil callback")
	}
	c := &e.cslots[s]
	c.fn, c.arg = fn, arg
	k := slotKey{e.stamp(delay), s}
	e.arms++
	if c.pos >= 0 {
		e.rekeys++
		e.cq[c.pos] = k
		e.fixSlot(int(c.pos))
		return
	}
	e.pending++
	e.cq = append(e.cq, k)
	e.slotUp(len(e.cq) - 1)
}

// Disarm cancels s's pending callback, if it has one.
func (e *Env) Disarm(s Slot) {
	c := &e.cslots[s]
	if c.pos < 0 {
		return
	}
	e.removeSlot(int(c.pos))
	c.fn, c.arg = nil, nil
	e.pending--
}

// popSlot disarms the earliest armed slot and returns its event, as
// popHeap and popRing return theirs; the callback may arm the slot again.
func (e *Env) popSlot() queued {
	c := &e.cslots[e.cq[0].slot]
	q := queued{key: e.cq[0].key, fn: c.fn, arg: c.arg}
	c.fn, c.arg = nil, nil
	e.removeSlot(0)
	return q
}

// removeSlot takes entry i out of the slot queue: the last entry takes
// its place and sifts from there.
func (e *Env) removeSlot(i int) {
	q := e.cq
	n := len(q) - 1
	e.cslots[q[i].slot].pos = -1
	e.cq = q[:n]
	if i == n {
		return
	}
	q[i] = q[n]
	e.cslots[q[i].slot].pos = int32(i)
	e.fixSlot(i)
}

// fixSlot restores the slot queue's heap order around entry i, whose
// key may have moved either way.
func (e *Env) fixSlot(i int) {
	if i > 0 && e.cq[i].less(&e.cq[(i-1)>>1].key) {
		e.slotUp(i)
	} else {
		e.slotDown(i)
	}
}

func (e *Env) slotUp(i int) {
	q := e.cq
	k := q[i]
	for i > 0 {
		parent := (i - 1) >> 1
		if !k.less(&q[parent].key) {
			break
		}
		q[i] = q[parent]
		e.cslots[q[i].slot].pos = int32(i)
		i = parent
	}
	q[i] = k
	e.cslots[k.slot].pos = int32(i)
}

func (e *Env) slotDown(i int) {
	q := e.cq
	n := len(q)
	k := q[i]
	for {
		best := i<<1 + 1
		if best >= n {
			break
		}
		if r := best + 1; r < n && q[r].less(&q[best].key) {
			best = r
		}
		if !q[best].less(&k.key) {
			break
		}
		q[i] = q[best]
		e.cslots[q[i].slot].pos = int32(i)
		i = best
	}
	q[i] = k
	e.cslots[k.slot].pos = int32(i)
}
