package comb

import (
	"context"
	"fmt"

	"comb/internal/core"
	"comb/internal/faultinject"
	"comb/internal/invariant"
	"comb/internal/method"
	"comb/internal/method/netperf"
	"comb/internal/method/pingpong"
	"comb/internal/obs"
	"comb/internal/runpipe"
	"comb/internal/spec"
	"comb/internal/stats"
	"comb/internal/strategy"
	"comb/internal/sweep"
	"comb/internal/transport"

	// Register the full built-in method catalogue: every facade entry
	// point resolves methods by name through the registry.
	_ "comb/internal/method/all"
)

// Re-exported configuration and result types; see internal/core for the
// field documentation.
type (
	// Config holds parameters shared by both methods.
	Config = core.Config
	// PollingConfig parameterizes the polling method (§2.1).
	PollingConfig = core.PollingConfig
	// PWWConfig parameterizes the post-work-wait method (§2.2).
	PWWConfig = core.PWWConfig
	// PollingResult is one polling-method measurement.
	PollingResult = core.PollingResult
	// PWWResult is one post-work-wait measurement.
	PWWResult = core.PWWResult
	// PingpongConfig parameterizes the ping-pong baseline method.
	PingpongConfig = pingpong.Params
	// PingpongResult is one ping-pong measurement.
	PingpongResult = pingpong.Result
	// NetperfConfig parameterizes the netperf-style baseline method.
	NetperfConfig = netperf.Params
	// NetperfResult is one netperf-style measurement.
	NetperfResult = netperf.Result
	// MethodResult is the generic typed result every registered method
	// returns; see internal/method.
	MethodResult = method.Result
	// Machine is the abstract platform COMB runs on.
	Machine = core.Machine
	// Table is a figure's data: named series plus axis metadata.
	Table = stats.Table
	// FigureSpec describes one reproducible paper figure.
	FigureSpec = sweep.Figure
	// FaultSpec configures deterministic wire/CPU fault injection; see
	// internal/faultinject.
	FaultSpec = faultinject.Spec
	// Violation is one broken simulation invariant; see
	// internal/invariant.
	Violation = invariant.Violation
	// Capture is the structured span timeline of one observed run; see
	// internal/obs.
	Capture = obs.Capture
	// Metrics is a run's metric registry (counters, gauges, histograms)
	// renderable as Prometheus text or a JSON snapshot; see internal/obs.
	Metrics = obs.Registry
	// Manifest is the provenance record of one run: the spec, toolchain
	// versions, and a hash of the result; see internal/obs.
	Manifest = obs.Manifest
)

// ParseFaults reads a -faults command-line spec, e.g.
// "drop=0.01,delay=0.2:50us,seed=7".
func ParseFaults(s string) (FaultSpec, error) { return faultinject.Parse(s) }

// Systems lists the available simulated messaging systems, sorted:
// "emp", "gm", "ideal", "portals" and "tcp".
func Systems() []string { return transport.Names() }

// Method selects which benchmark method a RunSpec executes.  Any name
// in Methods() is valid; the constants below name the built-ins.
type Method = spec.Method

const (
	// MethodPolling is the paper's §2.1 polling method.
	MethodPolling = spec.MethodPolling
	// MethodPWW is the paper's §2.2 post-work-wait method.
	MethodPWW = spec.MethodPWW
	// MethodPingpong is the blocking round-trip baseline.
	MethodPingpong = spec.MethodPingpong
	// MethodNetperf is the netperf-style availability baseline (§5).
	MethodNetperf = spec.MethodNetperf
	// MethodCollov is the collective/computation overlap benchmark.
	MethodCollov = spec.MethodCollov
	// MethodHalo is the 2D stencil halo exchange.
	MethodHalo = spec.MethodHalo
)

// Methods lists every registered benchmark method name, sorted.
func Methods() []string { return method.Names() }

// NetperfConfig.Mode values, re-exported for callers of the facade.
const (
	NetperfSelect   = netperf.ModeSelect
	NetperfBusyWait = netperf.ModeBusyWait
)

// SweepStrategy selects how a sweep spends its engine evaluations:
// "grid" (every dense point, the default), "bisect" (binary-search the
// axis for a metric threshold), "knee" (concentrate a point budget
// around the steepest gradient), or "adaptive-reps" (repeat each point
// until its confidence interval tightens).  See internal/strategy for
// the knob grammar.
type SweepStrategy = strategy.Spec

// ParseStrategy reads a -strategy command-line spec, e.g. "grid",
// "bisect:target=0.5", "knee:budget=12" or
// "adaptive-reps:reltol=0.05,maxreps=16", validating the knobs and
// filling defaults.
func ParseStrategy(s string) (*SweepStrategy, error) { return strategy.Parse(s) }

// Strategies lists the available sweep strategy names, sorted.
func Strategies() []string { return strategy.Names() }

// SpecVersion is the wire-schema version RunSpec marshals to and from:
// the same versioned JSON document serves the library, `comb run -spec`,
// and the serve API's request body.  Decoding a document with a missing
// or different "specVersion" fails with a *SpecVersionError.
const SpecVersion = spec.Version

// SpecVersionError reports a spec document whose specVersion this build
// does not speak; match it with errors.As.
type SpecVersionError = spec.VersionError

// RunSpec describes one measurement for Run: the method, the simulated
// system, and the method's configuration.  It is an alias of the single
// spec type (internal/spec.Spec) every COMB entry point shares — the
// sweep runner schedules the same type as its Point, and its JSON
// encoding is the versioned wire document the CLI and the serve API
// accept.  See the aliased type for field documentation.
type RunSpec = spec.Spec

// NodeCPU is one node's CPU-time breakdown over a whole run.
type NodeCPU = runpipe.NodeCPU

// RunStats aggregates the simulator's hardware counters for a run: what
// the wire and the hosts actually did while the benchmark measured.
type RunStats = runpipe.RunStats

// RunResult bundles everything one Run produced: the method result, the
// hardware counters, the optional packet trace and span timeline, the
// metric registry, and the provenance manifest.  See the aliased type
// (internal/runpipe.Outcome) for field documentation.
type RunResult = runpipe.Outcome

// Run executes one COMB measurement described by spec on a freshly built
// simulation and returns the worker's result plus hardware counters.  It
// is the facade's single entry point: every registered method — built-in
// or added — dispatches through the method registry's shared pipeline
// (the former RunPolling*/RunPWW* helpers are gone; express their
// configurations as RunSpecs).  A cancelled ctx tears the simulation
// down mid-run and returns ctx.Err().
func Run(ctx context.Context, s RunSpec) (*RunResult, error) {
	return runpipe.Run(ctx, s)
}

// SpecFromManifest reconstructs the RunSpec a manifest records, ready
// for Run.
func SpecFromManifest(mf *Manifest) (RunSpec, error) {
	return runpipe.SpecFromManifest(mf)
}

// Replay re-executes the measurement a manifest records and verifies
// that the fresh result hashes to the manifest's ResultHash.  The fresh
// result is returned even on hash mismatch (alongside the error) so
// callers can diff the two runs.
func Replay(ctx context.Context, mf *Manifest) (*RunResult, error) {
	s, err := SpecFromManifest(mf)
	if err != nil {
		return nil, err
	}
	res, err := Run(ctx, s)
	if err != nil {
		return nil, err
	}
	if mf.ResultHash != "" && res.Manifest.ResultHash != mf.ResultHash {
		return res, fmt.Errorf("comb: replay diverged: manifest result hash %s, this run %s",
			mf.ResultHash, res.Manifest.ResultHash)
	}
	return res, nil
}

// Figures lists every reproducible evaluation figure: the paper's
// Figures 4-17 plus the multi-rank collective-overlap Figure 18.
func Figures() []FigureSpec { return sweep.Figures() }

// BuildFigure regenerates the paper figure with the given number.  Quick
// mode shrinks the sweep for fast smoke runs.  Points execute in parallel
// on the sweep package's default engine; use BuildFigureContext for
// cancellation.
func BuildFigure(id string, quick bool) (*Table, error) {
	return BuildFigureContext(context.Background(), id, quick)
}

// BuildFigureContext is BuildFigure under a context: a cancelled ctx
// stops the sweep between (and inside) points.
func BuildFigureContext(ctx context.Context, id string, quick bool) (*Table, error) {
	f, err := sweep.ByID(id)
	if err != nil {
		return nil, err
	}
	return f.Build(sweep.Options{Quick: quick, Context: ctx})
}
