package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Windows drives a set of partition environments through conservative
// bounded time windows — the parallel counterpart of Env.Run.
//
// Each round picks the globally earliest pending event time T and lets
// every partition execute its events in [T, T+lookahead) concurrently.
// The lookahead comes from the minimum cross-partition delivery delay
// (link latency plus the per-packet occupancy floor at both ports), so
// nothing sent inside a window can be due inside that same window: a
// send at t >= T completes no earlier than t + lookahead >= T + lookahead.
// Between rounds a single-threaded merge hook drains the fabric
// mailboxes into the destination heaps; the barrier's atomic counters
// are the happens-before edges that let plain (unsynchronized)
// environments migrate between the merge and the party that owns them.
//
// Determinism: each environment is only ever advanced by one fixed
// party, environments are strictly single-threaded, and the merge runs
// alone — so event execution order inside every partition is identical
// run to run, and identical to the serial engine (the equality suite in
// internal/runpipe pins this across every method × transport).
type Windows struct {
	envs      []*Env
	lookahead Time
	merge     func()
	workers   int

	advanced uint64 // windows executed
	stalled  uint64 // windows in which fewer than two partitions had work
}

// NewWindows builds a scheduler over envs with the given lookahead and
// worker count.  lookahead must be positive (a zero-lookahead topology
// cannot be conservatively parallelized — the caller falls back to the
// serial engine).  merge runs single-threaded between windows; nil is
// allowed for mailbox-free workloads (tests).  workers is clamped to
// [1, len(envs)], and Run caps it again at GOMAXPROCS.
func NewWindows(envs []*Env, lookahead Time, workers int, merge func()) *Windows {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", lookahead))
	}
	if len(envs) == 0 {
		panic("sim: no partition environments")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(envs) {
		workers = len(envs)
	}
	return &Windows{envs: envs, lookahead: lookahead, merge: merge, workers: workers}
}

// Lookahead returns the window width.
func (w *Windows) Lookahead() Time { return w.lookahead }

// Stats reports how many windows have executed and how many of those had
// fewer than two partitions with runnable work (serialization stalls —
// windows where the parallel engine could not overlap anything).
func (w *Windows) Stats() (advanced, stalled uint64) { return w.advanced, w.stalled }

// windowResult is one party's report for one window.
type windowResult struct {
	active   int // partitions that executed at least one event
	panicked any // recovered panic, re-raised by the leader
}

// Run executes windows until every partition drains, or ctx is cancelled
// (checked once per window), or a partition panics (re-raised here, like
// Env.Run re-raises process panics).
//
// The work is split among n parties, the worker count capped at
// GOMAXPROCS: a party beyond the number of Ps could only spin against
// the one whose P it needs.  The calling goroutine is party 0, the
// leader; parties 1..n-1 are goroutines that live exactly as long as the
// call.  Partitions are assigned statically (party k owns envs k, k+n,
// ...), so each environment has exactly one writer for the whole run.
func (w *Windows) Run(ctx context.Context) error {
	procs := runtime.GOMAXPROCS(0)
	b := newBarrier(min(w.workers, procs), procs)
	liveParties.Add(int64(b.n))
	var wg sync.WaitGroup
	for k := 1; k < b.n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.follow(b, k)
		}()
	}
	defer func() {
		b.release()
		wg.Wait()
		liveParties.Add(-int64(b.n))
	}()
	for {
		if w.merge != nil {
			w.merge()
		}
		var base Time
		found := false
		for _, e := range w.envs {
			if t, ok := e.PeekTime(); ok && (!found || t < base) {
				base, found = t, true
			}
		}
		if !found {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		g := b.publish(base + w.lookahead)
		r := w.advance(0, b.n, b.bound)
		b.parties[0].await(&b.arrived, g*uint64(b.n-1), b.spins())
		for k := 1; k < b.n; k++ {
			f := &b.parties[k].res
			r.active += f.active
			if r.panicked == nil {
				r.panicked = f.panicked
			}
		}
		if r.panicked != nil {
			panic(r.panicked)
		}
		w.advanced++
		if r.active < 2 {
			w.stalled++
		}
	}
}

// follow is party k's loop: advance this party's partitions through
// each published window and count itself arrived, until released.
func (w *Windows) follow(b *barrier, k int) {
	p := &b.parties[k]
	for g := uint64(1); ; g++ {
		if p.await(&b.gen, g, b.spins()) == released {
			return
		}
		p.res = w.advance(k, b.n, b.bound)
		if b.arrived.Add(1) == g*uint64(b.n-1) {
			b.parties[0].wake()
		}
	}
}

// advance runs party k's partitions (k, k+n, ...) up to bound, reporting
// how many executed an event and any recovered panic.
func (w *Windows) advance(k, n int, bound Time) (r windowResult) {
	defer func() {
		if p := recover(); p != nil {
			r.panicked = p
		}
	}()
	for i := k; i < len(w.envs); i += n {
		e := w.envs[i]
		before := e.Steps()
		e.RunBefore(bound)
		if e.Steps() != before {
			r.active++
		}
	}
	return r
}

// released is the generation that tells every follower to return.
const released = ^uint64(0)

// Barrier spin budget.  A waiting party polls its counter for up to
// spinFor of wall time before it parks, yielding its P every yieldEvery
// polls so that a goroutine waiting for that P, the garbage collector's
// included, can run.  Waking a parked party takes a goroutine hand-off
// and often an OS thread wake-up; most waits (the merge between windows,
// or the slowest party's share of one) end well inside the budget.  On
// the 2-vCPU bench host, budgets from 50 µs to 1 ms made perfbench's
// `ranks` workload equally fast.
const (
	spinFor    = 200 * time.Microsecond
	yieldEvery = 64
)

// liveParties counts the parties of every Run in progress in the
// process.  Parties spin only while all of them fit on the Ps; beyond
// that a spinning party holds a P that the party it waits for may need.
// Concurrent Runs get there: a runner.Engine runs up to GOMAXPROCS
// simulations at once, each with its own parties.
var liveParties atomic.Int64

// barrier is one Run's window rendezvous.  The leader writes the bound
// and then bumps gen (one generation per window); each follower that
// finishes a window bumps arrived, so window g is done when arrived
// reaches g*(n-1).  Both counters only grow, which lets a party that
// wakes late tell a stale wake-up from its own.
type barrier struct {
	n       int
	procs   int  // GOMAXPROCS when the Run started
	bound   Time // the current window's bound, written before gen moves
	gen     atomic.Uint64
	arrived atomic.Uint64
	parties []party
}

func newBarrier(n, procs int) *barrier {
	b := &barrier{n: n, procs: procs, parties: make([]party, n)}
	for k := range b.parties {
		b.parties[k].wakeC = make(chan struct{}, 1)
	}
	return b
}

// spins reports whether a waiting party may spin before it parks: only
// while the parties of all Runs in progress fit on the Ps.
func (b *barrier) spins() bool { return liveParties.Load() <= int64(b.procs) }

// publish opens the next window at bound and returns its generation.
func (b *barrier) publish(bound Time) uint64 {
	b.bound = bound
	g := b.gen.Add(1)
	b.wakeFollowers()
	return g
}

// release tells every follower to return once its current window, if
// any, is done.
func (b *barrier) release() {
	b.gen.Store(released)
	b.wakeFollowers()
}

func (b *barrier) wakeFollowers() {
	for k := 1; k < b.n; k++ {
		b.parties[k].wake()
	}
}

// party is one participant's parking slot.  A waiter sets parked before
// its last look at the counter; whichever side then swaps parked back to
// false owns the wake-up, so a waker sends a token only to a party that
// will take it, and the channel never holds more than one.
type party struct {
	parked atomic.Bool
	wakeC  chan struct{} // capacity 1
	res    windowResult  // a follower's report, read after it arrives
}

// await returns c's value once it reaches want: it spins for the budget,
// if spin allows, and then parks until woken.
func (p *party) await(c *atomic.Uint64, want uint64, spin bool) uint64 {
	var start time.Time
	for i := 1; spin; i++ {
		if v := c.Load(); v >= want {
			return v
		}
		if i%yieldEvery != 0 {
			continue
		}
		if start.IsZero() {
			start = time.Now()
		} else if time.Since(start) > spinFor {
			break
		}
		runtime.Gosched()
	}
	for {
		p.parked.Store(true)
		if v := c.Load(); v >= want {
			if !p.parked.Swap(false) {
				<-p.wakeC // a waker claimed this park: take its token
			}
			return v
		}
		<-p.wakeC // may be a stale wake-up from the previous window
	}
}

// wake unparks p if it has parked; a spinning party needs nothing.
func (p *party) wake() {
	if p.parked.Load() && p.parked.Swap(false) {
		p.wakeC <- struct{}{}
	}
}
