package method

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"sort"
	"sync"
	"time"

	"comb/internal/invariant"
	"comb/internal/obs"
	"comb/internal/platform"
	"comb/internal/sim"
)

// Result is the typed outcome of one method run.  Concrete types are
// method-specific (e.g. *core.PollingResult); String renders the
// one-line human summary the CLI prints.
type Result interface {
	String() string
}

// Config carries the per-run context a Method receives alongside its
// own validated parameters.
type Config struct {
	// System is the transport name the enclosing platform was built for.
	System string
	// CPUs is the host CPU count per node (platform.Config.CPUs).
	CPUs int
	// Params holds the method's own parameters, as returned by Validate.
	Params any
	// Spans, when non-nil, receives phase spans from methods that record
	// them (engines attach it via machine.Sim.Observe or record phases
	// directly).
	Spans *obs.Collector
}

// Method is one registered benchmark method.  Implementations must be
// stateless values: one registered instance serves concurrent runs.
type Method interface {
	// Name is the registry key (e.g. "polling").
	Name() string
	// Describe is a one-line human description for listings.
	Describe() string
	// PhaseTaxonomy names the phase spans the method records, in
	// canonical order (e.g. "dry", "work", "poll", "drain").
	PhaseTaxonomy() []string
	// Validate normalizes params (applying defaults) and rejects
	// invalid values.  The returned value is what Run, Hash and the
	// cache key machinery receive; it must be JSON-serializable.
	Validate(params any) (any, error)
	// Hash renders validated params as a stable cache-key fragment.
	// Derived execution hints (e.g. calibrated dry times) must not
	// contribute: results are identical with or without them.
	Hash(params any) string
	// Run executes the method on an already-built platform instance and
	// returns its typed result.  It must spawn every rank through
	// platform.Instance.RunContext so cancellation and the invariant
	// checker observe the whole run.
	Run(ctx context.Context, in *platform.Instance, cfg Config) (Result, error)
	// DecodeParams unmarshals a JSON params payload (manifest replay).
	DecodeParams(b []byte) (any, error)
	// DecodeResult unmarshals a JSON result payload (disk cache).
	DecodeResult(b []byte) (Result, error)
}

// Calibratable is an optional Method extension for methods whose run
// starts with a dry (communication-free) work measurement the runner
// can memoize across a sweep: same system, same CPU count and same
// iteration count always produce the same duration.
type Calibratable interface {
	// CalibIters reports the dry-run iteration count for params, or
	// ok=false when this particular run cannot be calibrated.
	CalibIters(params any) (iters int64, ok bool)
	// Calibrated returns a copy of params with the known dry duration
	// planted as an execution hint.
	Calibrated(params any, dry time.Duration) any
	// CalibResult extracts the measured dry duration from a finished
	// result, for recording.
	CalibResult(res Result) time.Duration
}

// ResultChecker is an optional Method extension that asserts physical
// plausibility of a finished result against the run's invariant
// checker (availability ratios, bandwidth vs wire rate, byte counts).
type ResultChecker interface {
	CheckResult(chk *invariant.Checker, res Result)
}

// NodeScaler is an optional Method extension for methods that run on
// more than the paper's two nodes (multi-pair scaling: Nodes/2
// concurrent worker/support pairs sharing the switch).  Methods without
// it are restricted to the 2-node topology by spec validation.
type NodeScaler interface {
	// ValidateNodes rejects cluster sizes the method cannot run on
	// (odd counts, absurd scales); n is always > 2 here.
	ValidateNodes(n int) error
}

// MaxNodes bounds how large a multi-pair cluster a spec may request; it
// is a sanity rail (event-queue and goroutine counts scale with it), not
// a modeling limit.
const MaxNodes = 256

// ValidatePairNodes is the shared NodeScaler body for pair-structured
// methods: the cluster must split into whole worker/support pairs and
// stay within MaxNodes.
func ValidatePairNodes(name string, n int) error {
	if n%2 != 0 {
		return fmt.Errorf("%s: node count %d must be even (worker/support pairs)", name, n)
	}
	if n > MaxNodes {
		return fmt.Errorf("%s: node count %d exceeds the %d-node limit", name, n, MaxNodes)
	}
	return nil
}

// Relaxer is an optional Method extension declaring invariant rules
// the workload legitimately violates at shutdown (e.g. a netperf-style
// loop strands in-flight messages because it has no drain handshake).
// Everything not listed is still enforced.
type Relaxer interface {
	RelaxedInvariants() []string
}

// Fuzzer is an optional Method extension that derives randomized
// parameters for selfcheck fuzz sweeps.  Implementations must draw
// from crng deterministically (same stream position, same params) and
// keep runs small enough for a sweep of hundreds.
type Fuzzer interface {
	FuzzParams(crng *sim.Rand) any
}

// FlagBinder is an optional Method extension giving the method a
// command-line surface: BindFlags installs the method's parameter
// flags on fs and returns a closure that materializes the params after
// parsing (`comb run -method=X` calls it, then Validate).
type FlagBinder interface {
	BindFlags(fs *flag.FlagSet) (params func() any)
}

var (
	regMu   sync.RWMutex
	methods = map[string]Method{}
)

// Register adds m to the registry.  It panics on an empty or duplicate
// name: registration happens from init functions, where a conflict is
// a programming error.
func Register(m Method) {
	name := m.Name()
	if name == "" {
		panic("method: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := methods[name]; dup {
		panic(fmt.Sprintf("method: duplicate registration of %q", name))
	}
	methods[name] = m
}

// Lookup resolves a registered method by name.
func Lookup(name string) (Method, error) {
	regMu.RLock()
	m, ok := methods[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("method: unknown method %q (have %v)", name, Names())
	}
	return m, nil
}

// Names lists registered methods in sorted order.
func Names() []string {
	regMu.RLock()
	ns := make([]string, 0, len(methods))
	for n := range methods {
		ns = append(ns, n)
	}
	regMu.RUnlock()
	sort.Strings(ns)
	return ns
}

// ExecOptions carries the optional observability hooks Execute wires
// into the invariant checker.
type ExecOptions struct {
	// Spans, when non-nil, is handed to the message meter for
	// per-message spans (and should normally also be cfg.Spans).
	Spans *obs.Collector
}

// Execute is the one shared run pipeline: it attaches an invariant
// checker (honouring the method's relaxations), runs the method, and
// applies the end-of-run conservation and result-plausibility checks.
// Callers fold chk.Err() into their own error handling — the facade
// wraps it with the method and system, the runner returns it verbatim.  The
// returned checker is non-nil whenever err is nil.
func Execute(ctx context.Context, m Method, in *platform.Instance, cfg Config, opts ExecOptions) (Result, *invariant.Checker, error) {
	var relax []string
	if rx, ok := m.(Relaxer); ok {
		relax = rx.RelaxedInvariants()
	}
	chk := invariant.Attach(in.Sys, in.Comms, invariant.Options{
		Spans: opts.Spans,
		Relax: relax,
	})
	res, err := m.Run(ctx, in, cfg)
	if err != nil {
		return nil, chk, err
	}
	if res == nil {
		return nil, chk, fmt.Errorf("method: %s run produced no result", m.Name())
	}
	chk.Finish()
	if rc, ok := m.(ResultChecker); ok {
		rc.CheckResult(chk, res)
	}
	return res, chk, nil
}

// DecodeJSON is a helper for DecodeParams/DecodeResult implementations:
// it unmarshals b strictly into a fresh T and returns a pointer to it.
func DecodeJSON[T any](b []byte) (*T, error) {
	var v T
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	return &v, nil
}
