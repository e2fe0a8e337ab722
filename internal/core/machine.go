package core

import "time"

// Request is a pending non-blocking communication, the benchmark-visible
// face of MPI_Request.
type Request interface {
	// Done reports whether the request has completed.  It does not give
	// the library a progress opportunity; use Machine.Test for that.
	Done() bool
	// Bytes is the payload size the request moves.
	Bytes() int
}

// Machine is everything COMB needs from a platform: a rank identity, a
// clock, a calibrated busy-loop, and MPI-style non-blocking messaging.
// The benchmark methods are written solely against this interface, which
// is what makes the suite portable across transports (and, in tests,
// runnable on fakes).
//
// All durations are wall-clock on the machine's own clock; "iterations"
// are iterations of the machine's calibrated empty loop, the unit the
// paper's poll/work interval axes use.
type Machine interface {
	// Rank returns this process's rank; COMB uses rank 0 as the worker and
	// rank 1 as the support process.
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Now returns the machine's wall clock.
	Now() time.Duration
	// Work spins the calibrated empty loop for iters iterations.
	Work(iters int64)
	// Isend starts a non-blocking send of data to dst.
	Isend(dst, tag int, data []byte) Request
	// Irecv posts a non-blocking receive into buf from src.
	Irecv(src, tag int, buf []byte) Request
	// IsendLen starts a length-only send of an n-byte message to dst: it
	// costs what an Isend of n bytes costs but carries no bytes.  The
	// methods' bulk streams use it, since nothing reads their contents.
	IsendLen(dst, tag, n int) Request
	// IrecvLen posts a length-only receive of capacity n from src.  It
	// completes like an Irecv into an n-byte buffer, with Bytes
	// min(message size, n), and keeps no bytes.
	IrecvLen(src, tag, n int) Request
	// Test polls r for completion, giving the library a progress
	// opportunity (MPI_Test).
	Test(r Request) bool
	// Wait blocks until r completes (MPI_Wait).
	Wait(r Request)
	// Waitany blocks until one of rs completes and returns its index
	// (MPI_Waitany).
	Waitany(rs []Request) int
	// Waitall blocks until all of rs complete (MPI_Waitall).
	Waitall(rs []Request)
	// Barrier synchronizes all ranks.
	Barrier()
}

// SpanRecorder is an optional Machine extension receiving the benchmark
// engines' phase timeline: one span per timed phase (dry, post, work,
// wait, poll, drain) on this rank's clock.  The methods emit spans only
// when the machine implements it, so plain machines and fakes pay
// nothing; the simulator binding forwards spans to the observability
// layer (internal/obs).  Recording must not perturb the machine's clock.
type SpanRecorder interface {
	// RecordSpan records one timed phase: category, phase name, and the
	// [start, end) interval on this machine's clock.  kv lists
	// alternating argument keys and values (e.g. "rep", "3").
	RecordSpan(cat, name string, start, end time.Duration, kv ...string)
	// SpansEnabled reports whether spans are being collected.  The
	// engines check it once and skip all span bookkeeping (including the
	// extra clock reads that delimit each phase) when it is false, so an
	// unobserved run pays nothing on the hot path.
	SpansEnabled() bool
}

// spanRecorderOf returns m's span recorder when spans are enabled, else
// nil.
func spanRecorderOf(m Machine) SpanRecorder {
	if rec, ok := m.(SpanRecorder); ok && rec.SpansEnabled() {
		return rec
	}
	return nil
}

// Sleeper is an optional Machine extension: an idle wait that consumes
// wall-clock time without occupying the CPU.  The methods use it to
// replace a dry run whose duration is already known from an earlier
// measurement with identical work parameters (see
// PollingConfig.CalibratedDry); a machine that cannot idle precisely
// simply omits it and the dry run is executed as real work.
type Sleeper interface {
	// Sleep blocks the calling rank for exactly d on the machine's clock.
	Sleep(d time.Duration)
}

// runDry executes a dry run of iters iterations: the real busy-loop
// normally, or — when the engine already measured this exact work amount
// on this platform and the machine can idle — an equivalent wait of the
// known duration.  Either way the clock advances identically.
func runDry(m Machine, iters int64, calibrated time.Duration) {
	if calibrated > 0 {
		if s, ok := m.(Sleeper); ok {
			s.Sleep(calibrated)
			return
		}
	}
	m.Work(iters)
}

// SystemMeter is an optional Machine extension exposing node-wide CPU
// accounting.  The paper (§7) notes that COMB's availability metric —
// dilation of a single process's work loop — breaks on multi-processor
// nodes, where communication overhead lands on the other processor.  When
// a machine implements SystemMeter, the methods additionally report
// SystemAvailability:
//
//	1 - (CPU consumed beyond the benchmark's own work) / (cores × elapsed)
//
// which charges offloaded host overhead no matter which processor paid it.
// On a uniprocessor it coincides with the classic metric (up to library
// call costs).
type SystemMeter interface {
	// CPUAccount returns the cumulative busy CPU time summed over the
	// node's cores (all scheduling classes), and the core count.
	CPUAccount() (busy time.Duration, cores int)
}
