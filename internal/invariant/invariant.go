package invariant

import (
	"fmt"
	"strings"
	"sync"

	"comb/internal/cluster"
	"comb/internal/core"
	"comb/internal/mpi"
	"comb/internal/obs"
	"comb/internal/sim"
)

// DefaultMaxPending bounds the event queue when Options.MaxPending is
// zero.  It is a livelock tripwire, not a tight capacity model: a
// healthy two-node run keeps thousands of events pending at peak, a
// runaway self-rescheduling process grows without bound.
const DefaultMaxPending = 1 << 20

// availEps absorbs float rounding in availability ratios.
const availEps = 1e-6

// bwSlack tolerates the goodput-vs-wire-rate comparison's unit rounding
// (results are decimal MB/s computed from time.Duration).
const bwSlack = 1.01

// Violation is one broken invariant.
type Violation struct {
	At     sim.Time // virtual time of detection (end of run for Finish checks)
	Rule   string   // stable rule identifier, e.g. "conservation/packets"
	Detail string
}

// String renders "rule: detail (t=…)".
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (t=%v)", v.Rule, v.Detail, v.At)
}

// Options configures a Checker.
type Options struct {
	// MaxPending bounds the event queue depth; 0 means
	// DefaultMaxPending.
	MaxPending int
	// Spans, when non-nil, is handed to the message meter so every
	// completed send and receive records a per-message span (see
	// mpi.Meter.Spans).
	Spans *obs.Collector
	// Relax lists rule identifiers (e.g. "conservation/sends") whose
	// violations are suppressed.  Methods that legitimately strand
	// in-flight state at shutdown (a netperf-style loop has no drain
	// handshake) declare their relaxations via method.Relaxer; everything
	// not listed is still enforced.
	Relax []string
}

// Checker watches one simulated system for invariant violations.
//
// On a partitioned system (parallel engine) each partition gets its own
// meter and per-environment step watcher, so the hot counters stay
// unsynchronized single-writer state; only the violation list itself
// takes a mutex, since partition goroutines can report concurrently.
type Checker struct {
	sys    *cluster.System
	comms  []*mpi.Comm
	meters []*mpi.Meter // one (serial) or one per comm (partitioned)
	opts   Options

	watches    []envWatch // one per environment
	mu         sync.Mutex // guards violations (and queueTrip)
	queueTrip  bool       // queue-bound violation reported (once)
	violations []Violation
}

// envWatch is one environment's step-observer state, written only by the
// goroutine driving that environment.
type envWatch struct {
	env         *sim.Env
	lastAt      sim.Time
	peakPending int
}

// Attach wires a checker into sys: a message meter on every
// communicator and a per-event observer on each environment.  It must be
// called before the run starts.
func Attach(sys *cluster.System, comms []*mpi.Comm, opts Options) *Checker {
	if opts.MaxPending <= 0 {
		opts.MaxPending = DefaultMaxPending
	}
	c := &Checker{sys: sys, comms: comms, opts: opts}
	if sys.Partitioned() {
		for _, cm := range comms {
			m := &mpi.Meter{Spans: opts.Spans}
			c.meters = append(c.meters, m)
			cm.SetMeter(m)
		}
	} else {
		m := &mpi.Meter{Spans: opts.Spans}
		c.meters = []*mpi.Meter{m}
		for _, cm := range comms {
			cm.SetMeter(m)
		}
	}
	c.watches = make([]envWatch, len(sys.Envs))
	for i, env := range sys.Envs {
		w := &c.watches[i]
		w.env = env
		env.OnStep(func(at sim.Time) { c.step(w, at) })
	}
	return c
}

// Meter exposes the attached message meter (for tests and reporting).
// On a partitioned system it returns a fresh aggregate of the per-comm
// meters; call it only after the run.
func (c *Checker) Meter() *mpi.Meter {
	if len(c.meters) == 1 {
		return c.meters[0]
	}
	agg := &mpi.Meter{}
	for _, m := range c.meters {
		agg.PostedSends += m.PostedSends
		agg.PostedRecvs += m.PostedRecvs
		agg.DoneSends += m.DoneSends
		agg.DoneRecvs += m.DoneRecvs
		agg.SentBytes += m.SentBytes
		agg.RecvBytes += m.RecvBytes
	}
	return agg
}

// PeakPending reports the deepest event queue observed (summed across
// partition peaks on a partitioned system).
func (c *Checker) PeakPending() int {
	total := 0
	for i := range c.watches {
		total += c.watches[i].peakPending
	}
	return total
}

// step runs once per executed event on w's environment.
func (c *Checker) step(w *envWatch, at sim.Time) {
	if at < w.lastAt {
		c.add(at, "time/monotonic", fmt.Sprintf("clock went backwards: %v after %v", at, w.lastAt))
	}
	w.lastAt = at
	if p := w.env.Pending(); p > w.peakPending {
		w.peakPending = p
		if p > c.opts.MaxPending {
			c.tripQueue(at, p)
		}
	}
}

// tripQueue reports the queue-bound violation at most once.
func (c *Checker) tripQueue(at sim.Time, p int) {
	c.mu.Lock()
	tripped := c.queueTrip
	c.queueTrip = true
	c.mu.Unlock()
	if !tripped {
		c.add(at, "queue/bound", fmt.Sprintf("event queue depth %d exceeds bound %d (livelock?)", p, c.opts.MaxPending))
	}
}

// Finish runs the end-of-run conservation checks.  Call it only after
// the event queue drained normally (a deadlocked or cancelled run
// legitimately strands state).
func (c *Checker) Finish() {
	now := c.sys.Now()

	// Wire conservation: every packet sent is delivered, lost to the
	// wire, or swallowed by the fault injector — and duplicates are the
	// injector's doing, exactly counted.
	packets, _, delivered := c.sys.Fabric.Stats()
	lost := c.sys.Fabric.Lost()
	injDrop, injDup := c.sys.Fabric.InjectStats()
	if want := packets - lost - injDrop + injDup; delivered != want {
		c.add(now, "conservation/packets",
			fmt.Sprintf("delivered %d, want sent %d - lost %d - injected-drops %d + injected-dups %d = %d",
				delivered, packets, lost, injDrop, injDup, want))
	}

	// Message conservation: every posted send completes (benchmarks wait
	// on all of them), and completed sends pair one-to-one with
	// completed receives, byte for byte.  Posted receives may outnumber
	// completed ones (the polling worker keeps a full receive queue
	// posted at shutdown), never the reverse.
	m := c.Meter()
	if m.DoneSends != m.PostedSends {
		c.add(now, "conservation/sends",
			fmt.Sprintf("%d sends posted but %d completed", m.PostedSends, m.DoneSends))
	}
	if m.DoneRecvs > m.PostedRecvs {
		c.add(now, "conservation/recvs",
			fmt.Sprintf("%d receives completed but only %d posted", m.DoneRecvs, m.PostedRecvs))
	}
	if m.DoneSends != m.DoneRecvs {
		c.add(now, "conservation/messages",
			fmt.Sprintf("%d sends completed vs %d receives", m.DoneSends, m.DoneRecvs))
	}
	if m.SentBytes != m.RecvBytes {
		c.add(now, "conservation/bytes",
			fmt.Sprintf("%d bytes sent vs %d received", m.SentBytes, m.RecvBytes))
	}

	// Collective conservation: every collective a rank starts (barriers,
	// blocking collectives, nonblocking CollReqs) must be driven to
	// completion, and — since all ranks call the same collectives in the
	// same order — every rank must count the same number of them.
	var collRef int64
	for i, cm := range c.comms {
		started, done := cm.CollStats()
		if started != done {
			c.add(now, "conservation/collectives",
				fmt.Sprintf("rank %d started %d collectives but completed %d", cm.Rank(), started, done))
		}
		if i == 0 {
			collRef = started
		} else if started != collRef {
			c.add(now, "conservation/collectives",
				fmt.Sprintf("rank %d started %d collectives, rank %d started %d", cm.Rank(), started, c.comms[0].Rank(), collRef))
		}
	}

	// No rank may end the run with unexpected messages still queued: the
	// benchmarks' drain handshakes consume everything in flight.
	for _, cm := range c.comms {
		ms, ok := cm.Endpoint().(mpi.MatchStater)
		if !ok {
			continue
		}
		if n := ms.MatchState().UnexpectedLen(); n != 0 {
			c.add(now, "conservation/unexpected",
				fmt.Sprintf("rank %d ends with %d unexpected messages queued", cm.Rank(), n))
		}
	}
}

// CheckPolling asserts physical plausibility of a polling result.
func (c *Checker) CheckPolling(r *core.PollingResult) {
	if r == nil {
		return
	}
	now := c.sys.Now()
	if r.DryTime <= 0 || r.Elapsed <= 0 {
		c.add(now, "result/time", fmt.Sprintf("non-positive durations: dry %v, elapsed %v", r.DryTime, r.Elapsed))
	}
	c.checkAvail(r.Availability, r.SystemAvailability)
	c.checkBandwidth(r.BandwidthMBs)
	if r.MsgsReceived > 0 && r.BytesReceived != r.MsgsReceived*int64(r.MsgSize) {
		c.add(now, "result/bytes",
			fmt.Sprintf("%d messages of %dB but %d bytes received", r.MsgsReceived, r.MsgSize, r.BytesReceived))
	}
}

// CheckPWW asserts physical plausibility of a post-work-wait result.
func (c *Checker) CheckPWW(r *core.PWWResult) {
	if r == nil {
		return
	}
	now := c.sys.Now()
	if r.WorkOnly <= 0 || r.Elapsed <= 0 {
		c.add(now, "result/time", fmt.Sprintf("non-positive durations: work-only %v, elapsed %v", r.WorkOnly, r.Elapsed))
	}
	if r.Elapsed < r.WorkTotal {
		c.add(now, "result/time", fmt.Sprintf("elapsed %v shorter than its own work total %v", r.Elapsed, r.WorkTotal))
	}
	c.checkAvail(r.Availability, r.SystemAvailability)
	c.checkBandwidth(r.BandwidthMBs)
	if r.BytesReceived < 0 {
		c.add(now, "result/bytes", fmt.Sprintf("negative bytes received: %d", r.BytesReceived))
	}
}

// checkAvail asserts availability ∈ (0, 1] and system availability ∈
// [0, 1], both with float tolerance.
func (c *Checker) checkAvail(avail, sysAvail float64) {
	now := c.sys.Now()
	if avail <= 0 || avail > 1+availEps {
		c.add(now, "result/availability", fmt.Sprintf("availability %v outside (0, 1]", avail))
	}
	if sysAvail < 0 || sysAvail > 1+availEps {
		c.add(now, "result/availability", fmt.Sprintf("system availability %v outside [0, 1]", sysAvail))
	}
}

// checkBandwidth asserts goodput does not beat the wire.
func (c *Checker) checkBandwidth(mbs float64) {
	limit := c.sys.P.Link.Bandwidth / 1e6 * bwSlack
	if mbs < 0 || mbs > limit {
		c.add(c.sys.Now(), "result/bandwidth",
			fmt.Sprintf("%.2f MB/s outside [0, %.2f] (wire rate %.0f B/s)", mbs, limit, c.sys.P.Link.Bandwidth))
	}
}

// CheckAvailability asserts availability ∈ (0, 1] and system
// availability ∈ [0, 1]; methods without a dedicated Check* helper use
// it from their CheckResult hook.
func (c *Checker) CheckAvailability(avail, sysAvail float64) { c.checkAvail(avail, sysAvail) }

// CheckBandwidth asserts goodput does not beat the wire rate.
func (c *Checker) CheckBandwidth(mbs float64) { c.checkBandwidth(mbs) }

// CheckRange asserts a method-specific quantity lands in [lo, hi] (with
// float tolerance) under the result/range rule; what names it in the
// violation.
func (c *Checker) CheckRange(what string, v, lo, hi float64) {
	if v < lo-availEps || v > hi+availEps {
		c.add(c.sys.Now(), "result/range", fmt.Sprintf("%s %v outside [%v, %v]", what, v, lo, hi))
	}
}

// CheckPositiveTime asserts a measured duration is strictly positive
// under the result/time rule.
func (c *Checker) CheckPositiveTime(what string, v float64) {
	if v <= 0 {
		c.add(c.sys.Now(), "result/time", fmt.Sprintf("non-positive %s: %v", what, v))
	}
}

func (c *Checker) add(at sim.Time, rule, detail string) {
	for _, r := range c.opts.Relax {
		if r == rule {
			return
		}
	}
	c.mu.Lock()
	c.violations = append(c.violations, Violation{At: at, Rule: rule, Detail: detail})
	c.mu.Unlock()
}

// Violations returns everything found so far.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violations
}

// Err returns nil when no invariant broke, else one error summarizing
// every violation.
func (c *Checker) Err() error {
	vs := c.Violations()
	if len(vs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):", len(vs))
	for _, v := range vs {
		fmt.Fprintf(&b, "\n  %v", v)
	}
	return fmt.Errorf("%s", b.String())
}
