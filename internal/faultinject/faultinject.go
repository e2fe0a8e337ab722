package faultinject

import (
	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/sim"
	"comb/internal/transport"
)

// bulkThreshold is the wire size above which a packet counts as bulk
// data for jitter triggering.  Control traffic (barrier bytes, RTS/CTS,
// ACKs) stays below it, so jitter bursts land only while payload is
// moving — the dry-run calibration phases see no bursts and
// availability stays a well-defined ratio.
const bulkThreshold = 1024

// Masked returns s with the faults tol cannot survive zeroed, plus the
// sorted names of the removed faults.
func (s Spec) Masked(tol transport.Tolerance) (Spec, []string) {
	removed := map[string]bool{}
	if s.Drop > 0 && !tol.Loss {
		s.Drop = 0
		removed["drop"] = true
	}
	if s.Dup > 0 && !tol.Duplication {
		s.Dup = 0
		removed["dup"] = true
	}
	if s.Reorder > 0 && !tol.Reorder {
		s.Reorder = 0
		removed["reorder"] = true
	}
	return s, maskNames(removed)
}

// Stats counts what the injector actually did during a run.  Drops and
// duplicates are accounted by the fabric (cluster.Fabric.InjectStats) so
// conservation checks stay exact; these are the injector-side extras.
type Stats struct {
	Delayed      int64 // packets given an in-order extra delay
	Reordered    int64 // packets held back past their followers
	JitterBursts int64 // CPU bursts submitted
}

// Transport wraps an inner transport with fault injection.  It
// implements transport.Transport; use Wrap (not a literal) so the
// LinkPreferencer extension of the inner transport is preserved.
type Transport struct {
	inner  transport.Transport
	spec   Spec // effective spec, post tolerance masking
	masked []string
	inj    *injector
	stats  *Stats
}

// Wrap returns inner wrapped with the given fault spec.  Faults the
// transport cannot survive (per transport.ToleranceOf) are masked off;
// MaskedFaults reports which.  The returned transport reads
// "<inner>+faults" in registries and results.
func Wrap(inner transport.Transport, spec Spec) transport.Transport {
	spec = spec.withDefaults()
	eff, masked := spec.Masked(transport.ToleranceOf(inner.Name()))
	t := &Transport{inner: inner, spec: eff, masked: masked, stats: &Stats{}}
	if _, ok := inner.(transport.LinkPreferencer); ok {
		return &linkedTransport{t}
	}
	return t
}

// Unwrap returns the fault wrapper inside tr, if tr came from Wrap.
func Unwrap(tr transport.Transport) (*Transport, bool) {
	switch v := tr.(type) {
	case *Transport:
		return v, true
	case *linkedTransport:
		return v.Transport, true
	}
	return nil, false
}

// linkedTransport adds the LinkPreferencer forward for inner transports
// that bring their own wire (TCP, EMP on Ethernet).
type linkedTransport struct{ *Transport }

func (l *linkedTransport) PreferredLink() (cluster.LinkConfig, int) {
	return l.inner.(transport.LinkPreferencer).PreferredLink()
}

// Name returns the inner transport's name tagged with "+faults".
func (t *Transport) Name() string { return t.inner.Name() + "+faults" }

// InjectsFaults implements transport.FaultMarker: the platform layer must
// use the serial engine, because injected deliveries reorder across
// partition boundaries.
func (t *Transport) InjectsFaults() bool { return true }

// Spec returns the effective (post-masking) fault spec.
func (t *Transport) Spec() Spec { return t.spec }

// MaskedFaults lists fault kinds removed because the inner transport
// cannot survive them.
func (t *Transport) MaskedFaults() []string { return t.masked }

// Stats returns the injector's counters for the most recent Build's
// system.
func (t *Transport) Stats() Stats { return *t.stats }

// Build attaches the inner transport's endpoints, then installs the
// packet injector and the jitter observer on the system's fabric.
func (t *Transport) Build(sys *cluster.System) []mpi.Endpoint {
	eps := t.inner.Build(sys)
	*t.stats = Stats{}
	if t.spec.Drop > 0 || t.spec.Dup > 0 || t.spec.Reorder > 0 || t.spec.DelayProb > 0 {
		t.inj = &injector{
			spec:  t.spec,
			rng:   sim.NewRand(t.spec.Seed),
			last:  make(map[pair]sim.Time),
			stats: t.stats,
		}
		sys.Fabric.SetInjector(t.inj)
	}
	if t.spec.JitterProb > 0 && t.spec.JitterBurst > 0 {
		jrng := sim.NewRand(t.spec.Seed ^ 0x6a17_7e2b_5eed_ca5e)
		prob, burst, stats := t.spec.JitterProb, t.spec.JitterBurst, t.stats
		sys.Fabric.Observe(func(pkt *cluster.Packet, _ sim.Time) {
			if pkt.Size < bulkThreshold || jrng.Float64() >= prob {
				return
			}
			stats.JitterBursts++
			sys.Nodes[pkt.To].CPU.SubmitCall(burst, cluster.Interrupt, nil, nil)
		})
	}
	return eps
}

// pair keys per-(sender,receiver) FIFO state.
type pair struct{ from, to int }

// injector implements cluster.Injector: it decides each packet's fate at
// delivery-scheduling time, deterministically from the spec's seed.
type injector struct {
	spec  Spec
	rng   *sim.Rand
	last  map[pair]sim.Time // delivery-time clamp preserving per-pair FIFO
	stats *Stats
}

// Deliver returns the times at which copies of pkt reach the receiver.
// Clean and delayed deliveries are clamped to the pair's previous
// delivery time so fragments never overtake each other (GM's eager
// protocol relies on the wire's FIFO guarantee); a reorder fault skips
// the clamp update so followers pass the held-back packet.
func (in *injector) Deliver(pkt *cluster.Packet, at sim.Time) []sim.Time {
	s := &in.spec
	if s.Drop > 0 && in.rng.Float64() < s.Drop {
		return nil
	}
	w := at
	if s.DelayProb > 0 && in.rng.Float64() < s.DelayProb {
		w += in.randDur(s.DelayMax)
		in.stats.Delayed++
	}
	key := pair{pkt.From, pkt.To}
	if s.Reorder > 0 && in.rng.Float64() < s.Reorder {
		w += in.randDur(s.DelayMax)
		in.stats.Reordered++
	} else {
		if last := in.last[key]; w < last {
			w = last
		}
		in.last[key] = w
	}
	out := []sim.Time{w}
	if s.Dup > 0 && in.rng.Float64() < s.Dup {
		out = append(out, w+in.randDur(s.DelayMax))
	}
	return out
}

// randDur draws a uniform duration in [1, max].
func (in *injector) randDur(max sim.Time) sim.Time {
	if max <= 0 {
		max = DefaultDelayMax
	}
	return sim.Time(in.rng.Uint64()%uint64(max)) + 1
}
