package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"comb/internal/sim"
)

// Spec describes one fault-injection configuration.  The zero Spec
// injects nothing.
type Spec struct {
	// Seed seeds the injection generator (0 is a valid seed).
	Seed uint64
	// Drop is the per-packet probability of silently discarding it after
	// it consumed wire time.
	Drop float64
	// Dup is the per-packet probability of delivering a second copy.
	Dup float64
	// Reorder is the per-packet probability of holding the packet back so
	// later packets from the same sender overtake it.
	Reorder float64
	// DelayProb is the per-packet probability of an extra in-order
	// delivery delay, uniform in (0, DelayMax].
	DelayProb float64
	// DelayMax bounds the extra delay (also used as the hold-back bound
	// for reordering and the lag of a duplicate).  Defaults to 10us when
	// a delay, reorder or duplication probability is set without it.
	DelayMax sim.Time
	// JitterProb is the per-bulk-packet probability of a CPU jitter burst
	// on the receiving node: JitterBurst of interrupt-priority CPU time
	// stealing cycles from the benchmark, modeling OS noise correlated
	// with network activity.
	JitterProb float64
	// JitterBurst is the burst length (default 50us when JitterProb is
	// set without it).
	JitterBurst sim.Time
}

// Default fault magnitudes applied when a probability is set without its
// companion bound.
const (
	DefaultDelayMax    = 10 * sim.Microsecond
	DefaultJitterBurst = 50 * sim.Microsecond
)

// Zero reports whether the spec injects nothing.
func (s Spec) Zero() bool {
	return s.Drop == 0 && s.Dup == 0 && s.Reorder == 0 && s.DelayProb == 0 && s.JitterProb == 0
}

// WireOnly reports whether the spec perturbs only the wire (drop,
// duplication, reorder, delay) and never the host CPU.  Jitter bursts
// steal benchmark cycles, which also inflates a method's dry-run
// calibration — so cross-run relations that compare a faulted run's
// availability against its clean twin only hold for wire-only specs
// (see internal/scenario).
func (s Spec) WireOnly() bool { return s.JitterProb == 0 }

// withDefaults returns s with unset magnitude bounds filled in and
// unused ones cleared, so two specs that inject the same faults are equal
// and render alike.
func (s Spec) withDefaults() Spec {
	if s.delayBounded() {
		if s.DelayMax <= 0 {
			s.DelayMax = DefaultDelayMax
		}
	} else {
		s.DelayMax = 0
	}
	if s.JitterProb > 0 {
		if s.JitterBurst <= 0 {
			s.JitterBurst = DefaultJitterBurst
		}
	} else {
		s.JitterBurst = 0
	}
	return s
}

// delayBounded reports whether DelayMax bounds any fault s injects.
func (s Spec) delayBounded() bool { return s.DelayProb > 0 || s.Reorder > 0 || s.Dup > 0 }

// Validate checks probability ranges and magnitude signs.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"drop", s.Drop}, {"dup", s.Dup}, {"reorder", s.Reorder},
		{"delay", s.DelayProb}, {"jitter", s.JitterProb},
	} {
		if !(p.v >= 0 && p.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("faultinject: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if s.DelayMax < 0 {
		return fmt.Errorf("faultinject: negative delay bound %v", s.DelayMax)
	}
	if s.JitterBurst < 0 {
		return fmt.Errorf("faultinject: negative jitter burst %v", s.JitterBurst)
	}
	return nil
}

// String renders the spec in the form Parse accepts, suitable for replay
// instructions in failure messages and for cache keys: Parse reads every
// parsed spec's String back as the same spec.  A reorder or duplication
// bound that is set and not the default renders as "delay=0:<bound>".
func (s Spec) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", k, v))
		}
	}
	add("drop", s.Drop)
	add("dup", s.Dup)
	add("reorder", s.Reorder)
	if s.DelayProb > 0 || (s.delayBounded() && s.DelayMax > 0 && s.DelayMax != DefaultDelayMax) {
		parts = append(parts, fmt.Sprintf("delay=%v:%s", s.DelayProb, durString(s.DelayMax)))
	}
	if s.JitterProb > 0 {
		parts = append(parts, fmt.Sprintf("jitter=%v:%s", s.JitterProb, durString(s.JitterBurst)))
	}
	parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	return strings.Join(parts, ",")
}

// durString renders d so that time.ParseDuration reads it back exactly:
// in sim.Time's short form when that round-trips, as every committed key's
// durations do, else as a whole number of the largest unit dividing d.
func durString(d sim.Time) string {
	if s := d.String(); parsesTo(s, d) {
		return s
	}
	for _, u := range []struct {
		t    sim.Time
		name string
	}{{sim.Second, "s"}, {sim.Millisecond, "ms"}, {sim.Microsecond, "us"}} {
		if d%u.t == 0 {
			return fmt.Sprintf("%d%s", d/u.t, u.name)
		}
	}
	return fmt.Sprintf("%dns", int64(d))
}

// parsesTo reports whether time.ParseDuration reads s as exactly d.
func parsesTo(s string, d sim.Time) bool {
	got, err := time.ParseDuration(s)
	return err == nil && got.Nanoseconds() == int64(d)
}

// Parse reads a comma-separated fault spec, e.g.
//
//	drop=0.01,dup=0.01,reorder=0.05,delay=0.2:50us,jitter=0.1:200us,seed=7
//
// Probabilities are in [0,1]; durations use Go syntax (ns/us/ms/s).  The
// delay and jitter values take an optional ":duration" magnitude.
func Parse(in string) (Spec, error) {
	var s Spec
	in = strings.TrimSpace(in)
	if in == "" {
		return s, nil
	}
	for _, field := range strings.Split(in, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return s, fmt.Errorf("faultinject: bad field %q (want key=value)", field)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return s, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			s.Seed = n
		case "drop", "dup", "reorder":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return s, fmt.Errorf("faultinject: bad %s probability %q: %v", k, v, err)
			}
			switch k {
			case "drop":
				s.Drop = p
			case "dup":
				s.Dup = p
			case "reorder":
				s.Reorder = p
			}
		case "delay", "jitter":
			pstr, dstr, hasDur := strings.Cut(v, ":")
			p, err := strconv.ParseFloat(pstr, 64)
			if err != nil {
				return s, fmt.Errorf("faultinject: bad %s probability %q: %v", k, pstr, err)
			}
			var dur sim.Time
			if hasDur {
				d, err := time.ParseDuration(dstr)
				if err != nil {
					return s, fmt.Errorf("faultinject: bad %s duration %q: %v", k, dstr, err)
				}
				dur = sim.Time(d.Nanoseconds())
			}
			if k == "delay" {
				s.DelayProb, s.DelayMax = p, dur
			} else {
				s.JitterProb, s.JitterBurst = p, dur
			}
		default:
			return s, fmt.Errorf("faultinject: unknown fault %q (have drop, dup, reorder, delay, jitter, seed)", k)
		}
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// maskNames lists fault kinds by the spec fields they zero, for mask
// reporting.
func maskNames(removed map[string]bool) []string {
	var ns []string
	for n := range removed {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}
