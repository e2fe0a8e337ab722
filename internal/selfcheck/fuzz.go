package selfcheck

import (
	"context"
	"fmt"
	"strings"

	"comb"
	"comb/internal/faultinject"
	"comb/internal/method"
	"comb/internal/sim"
	"comb/internal/spec"
	"comb/internal/transport"
)

// FuzzSystems lists the transports the fuzz sweep degrades, cycled
// round-robin so every sweep covers all four.
var FuzzSystems = []string{"gm", "tcp", "emp", "portals"}

// FuzzFailure is one fuzz case that broke an invariant (or the
// simulator outright).  Spec is the case's whole measurement, fuzzed
// method parameters included, so its replay line reruns exactly that
// case: `comb run -spec '<document>'`.
type FuzzFailure struct {
	Case int
	Spec comb.RunSpec
	Err  error
}

// String renders the failure with its replay instructions.
func (f FuzzFailure) String() string {
	return fmt.Sprintf("case %d: replay with `%s`: %v", f.Case, spec.ReplayLine(f.Spec), f.Err)
}

// FuzzResult summarizes one deterministic fuzz sweep.
type FuzzResult struct {
	Cases     int
	PerSystem map[string]int
	Failures  []FuzzFailure
}

// Passed reports whether every case held all invariants.
func (r *FuzzResult) Passed() bool { return len(r.Failures) == 0 }

// String renders the sweep summary plus any failures.
func (r *FuzzResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz: %d degraded runs", r.Cases)
	var parts []string
	for _, sys := range FuzzSystems {
		if n := r.PerSystem[sys]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", sys, n))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, " "))
	}
	if r.Passed() {
		b.WriteString(", zero invariant violations\n")
	} else {
		fmt.Fprintf(&b, ", %d FAILED:\n", len(r.Failures))
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "  %v\n", f)
		}
	}
	return b.String()
}

// Fuzz runs n deterministic degraded measurements derived from seed:
// each case picks a transport (round-robin over FuzzSystems), a method,
// a small benchmark configuration, and a fault mix the transport claims
// to survive, then runs it with the invariant checker attached.  The
// same (n, seed) always produces the same cases; every failure carries
// its case seed so it can be replayed alone.
//
// Case configurations are kept small (tens of KB, a handful of reps) so
// a 200-case sweep stays interactive; the point is exercising fault
// paths, not sustaining bandwidth.
func Fuzz(ctx context.Context, n int, seed uint64) *FuzzResult {
	res := &FuzzResult{PerSystem: make(map[string]int)}
	rng := sim.NewRand(seed)
	for i := 0; i < n; i++ {
		caseSeed := rng.Uint64()
		if ctx.Err() != nil {
			break
		}
		sys := FuzzSystems[i%len(FuzzSystems)]
		s := FuzzCase(sys, caseSeed)
		res.Cases++
		res.PerSystem[sys]++
		if _, err := comb.Run(ctx, s); err != nil && ctx.Err() == nil {
			res.Failures = append(res.Failures, FuzzFailure{Case: i, Spec: s, Err: err})
		}
	}
	return res
}

// FuzzCase derives one degraded RunSpec from a case seed.  All draws
// come from a generator seeded with caseSeed, so the case is fully
// determined by (system, caseSeed).  Every registered method that
// implements method.Fuzzer participates: the case picks one (uniformly
// over the sorted name list, so the distribution is stable across
// processes) and lets the method derive its own small parameter set
// from the same stream.
func FuzzCase(sys string, caseSeed uint64) comb.RunSpec {
	crng := sim.NewRand(caseSeed)
	tol := transport.ToleranceOf(sys)

	fs := faultinject.Spec{
		Seed:        caseSeed,
		DelayProb:   0.3 * crng.Float64(),
		DelayMax:    sim.Time(1+crng.Intn(20)) * sim.Microsecond,
		JitterProb:  0.2 * crng.Float64(),
		JitterBurst: sim.Time(10+crng.Intn(90)) * sim.Microsecond,
	}
	if tol.Reorder {
		fs.Reorder = 0.2 * crng.Float64()
	}
	if tol.Loss {
		fs.Drop = 0.03 * crng.Float64()
	}
	if tol.Duplication {
		fs.Dup = 0.03 * crng.Float64()
	}

	names, fuzzers := fuzzableMethods()
	i := crng.Intn(len(fuzzers))
	return comb.RunSpec{
		Method: comb.Method(names[i]),
		System: sys,
		Seed:   caseSeed,
		Faults: &fs,
		Params: fuzzers[i].FuzzParams(crng),
	}
}

// fuzzableMethods lists the registered methods implementing
// method.Fuzzer, in sorted-name order so case derivation is stable.
func fuzzableMethods() ([]string, []method.Fuzzer) {
	var names []string
	var fz []method.Fuzzer
	for _, name := range method.Names() {
		m, err := method.Lookup(name)
		if err != nil {
			continue
		}
		if f, ok := m.(method.Fuzzer); ok {
			names = append(names, name)
			fz = append(fz, f)
		}
	}
	return names, fz
}
