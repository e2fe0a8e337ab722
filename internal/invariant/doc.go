// Package invariant verifies simulation-wide correctness properties on
// every run it is attached to: conservation of posted/completed
// messages and of wire packets, bounded event-queue depth, and
// physically-plausible results (availability is a fraction, bandwidth
// fits the wire).  It is the backstop that keeps the simulator honest
// under fault injection, hostile configs, and future optimization work:
// any benchmark number produced while an invariant is broken is noise.
//
// The checker runs no code per event.  The queue bound is kept by
// sim.Env itself (PendingLimit, PendingOver, PeakPending) and read when
// the checker is asked.  Virtual time has no rule of its own: the event
// loop panics ("event queue went backwards") before a step could run in
// the past, and so does ScheduleStamped for a merged event due before
// now, so such a run ends in a panic rather than a violation.
//
// Usage: Attach before the run starts, Finish after the event queue
// drains, Check* on each produced result, then Err.
package invariant
