// Package runpipe executes one fully described measurement — a spec.Spec
// — on a freshly built simulation and assembles everything it produced:
// the method's typed result, hardware counters, optional packet trace and
// span timeline, the metric registry, and the provenance manifest with
// its result hash.
//
// It is the pipeline behind the comb.Run facade, `comb run`, the serve
// API's job executor and the White & Bova probe.  The sweep runner
// shares its platform construction (NewPlatform) and hands the platform
// to the same method.Execute, so seeds, fault injection and the
// invariant checker behave identically on every entry path.
package runpipe

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"comb/internal/cluster"
	"comb/internal/core"
	"comb/internal/faultinject"
	"comb/internal/method"
	"comb/internal/mpi"
	"comb/internal/obs"
	"comb/internal/platform"
	"comb/internal/sim"
	"comb/internal/spec"
	"comb/internal/strategy"
	"comb/internal/transport"
)

// NodeCPU is one node's CPU-time breakdown over a whole run.
type NodeCPU struct {
	Node      int
	Cores     int
	User      time.Duration
	Kernel    time.Duration
	Interrupt time.Duration
}

// RunStats aggregates the simulator's hardware counters for a run: what
// the wire and the hosts actually did while the benchmark measured.
type RunStats struct {
	// Packets and WireBytes count fabric traffic (headers included).
	Packets   int64
	WireBytes int64
	// CPUs holds the per-node CPU breakdown.
	CPUs []NodeCPU
}

// Outcome bundles everything one Run produced: the method result, the
// hardware counters, and the optional packet trace.  It is comb.RunResult.
type Outcome struct {
	// Value is the method's typed result, whatever the method (always
	// present).  For the built-ins it is a *core.PollingResult,
	// *core.PWWResult, *pingpong.Result, or *netperf.Result.
	Value method.Result
	// Polling is set for polling-method runs (a typed view of Value).
	Polling *core.PollingResult
	// PWW is set for PWW-method runs (a typed view of Value).
	PWW *core.PWWResult
	// Stats holds the run's hardware counters (always present).
	Stats *RunStats
	// Trace holds the last Spec.TraceCap packet deliveries as CatPacket
	// instants, or nil when tracing was off.
	Trace *obs.Ring[obs.Instant]
	// Obs holds the span timeline (plus packet instants when TraceCap
	// was also set), or nil when Spec.ObsCap was zero.  Export it with
	// obs.WriteChromeTrace or Capture.Save.
	Obs *obs.Capture
	// Metrics is the run's metric registry: message/packet/byte counters
	// and phase-duration histograms (always present).
	Metrics *obs.Registry
	// Manifest records the run's full provenance, including a hash over
	// the result and counters that Replay verifies (always present).
	Manifest *obs.Manifest
}

// NewPlatform builds the simulation instance a normalized spec (see
// spec.Spec.Normalized) describes: the named transport system, the CPU
// override, the RNG seed, and — when the spec injects faults — the
// fault-wrapped transport.  It uses s.Faults as given: Normalized has
// already folded a zero fault spec to nil, defaulted its seed from
// Spec.Seed and validated it.  Every entry path (facade, sweep runner,
// serve) builds platforms here, so seeds and faults behave identically
// everywhere.
func NewPlatform(s spec.Spec) (*platform.Instance, error) {
	cfg := platform.Config{
		Transport:  s.System,
		CPUs:       s.CPUs,
		Nodes:      s.Nodes,
		Seed:       s.Seed,
		SimWorkers: s.SimWorkers,
	}
	if s.TraceCap > 0 {
		// The packet-trace hooks observe the fabric from whichever
		// partition delivers, so tracing forces the serial engine (results
		// are identical either way; only wall-clock differs).
		cfg.SimWorkers = 0
	}
	if s.Faults != nil {
		inner, err := transport.ByName(s.System)
		if err != nil {
			return nil, err
		}
		cfg.Custom = faultinject.Wrap(inner, *s.Faults)
	}
	return platform.New(cfg)
}

// Run executes one measurement described by s on a freshly built
// simulation and returns the worker's result plus hardware counters.  It
// dispatches every registered method — built-in or added — through the
// method registry's shared pipeline.  A cancelled ctx tears the
// simulation down mid-run and returns ctx.Err().
func Run(ctx context.Context, s spec.Spec) (*Outcome, error) {
	// Normalized (not just Resolve+Validate) so the optional axes are
	// checked too — notably Nodes, which needs the method's NodeScaler.
	n, m, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	s = n
	params := n.Params
	in, err := NewPlatform(s)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	var rec *obs.Ring[obs.Instant]
	if s.TraceCap > 0 {
		rec = obs.NewRing[obs.Instant](s.TraceCap)
		in.Sys.Fabric.Observe(func(pkt *cluster.Packet, at sim.Time) {
			rec.Add(obs.Instant{At: time.Duration(at), Cat: obs.CatPacket, Node: pkt.To,
				Detail: fmt.Sprintf("from node%d, %dB", pkt.From, pkt.Size)})
		})
	}
	reg := obs.NewRegistry()
	var col *obs.Collector
	if s.ObsCap != 0 {
		capacity := s.ObsCap
		if capacity < 0 {
			capacity = 0 // NewCollector's default
		}
		col = obs.NewCollector(capacity, reg)
	}
	res, chk, err := method.Execute(ctx, m, in, method.Config{
		System: s.System,
		CPUs:   s.CPUs,
		Params: params,
		Spans:  col,
	}, method.ExecOptions{Spans: col})
	if err != nil {
		return nil, err
	}
	if verr := chk.Err(); verr != nil {
		return nil, fmt.Errorf("comb: %s/%s run broke the simulator: %w", m.Name(), s.System, verr)
	}
	out := &Outcome{Value: res}
	out.Polling, _ = res.(*core.PollingResult)
	out.PWW, _ = res.(*core.PWWResult)
	out.Stats = snapshot(in)
	out.Trace = rec
	fillMetrics(reg, in, chk.Meter())
	out.Metrics = reg
	if col != nil {
		out.Obs = col.Capture()
		if rec != nil {
			out.Obs.Instants = rec.Items()
		}
	}
	out.Manifest, err = buildManifest(s, m, params, out)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fillMetrics loads the end-of-run hardware and message counters into
// the registry (phase histograms accrue live via the span collector).
func fillMetrics(reg *obs.Registry, in *platform.Instance, meter *mpi.Meter) {
	msgHelp := "MPI messages, by kind."
	reg.Counter(`comb_messages_posted_total{kind="send"}`, msgHelp).Add(meter.PostedSends)
	reg.Counter(`comb_messages_posted_total{kind="recv"}`, msgHelp).Add(meter.PostedRecvs)
	reg.Counter(`comb_messages_completed_total{kind="send"}`, msgHelp).Add(meter.DoneSends)
	reg.Counter(`comb_messages_completed_total{kind="recv"}`, msgHelp).Add(meter.DoneRecvs)
	byteHelp := "Payload bytes of completed messages, by kind."
	reg.Counter(`comb_message_bytes_total{kind="send"}`, byteHelp).Add(meter.SentBytes)
	reg.Counter(`comb_message_bytes_total{kind="recv"}`, byteHelp).Add(meter.RecvBytes)

	pktHelp := "Fabric packets, by fate."
	packets, wireBytes, delivered := in.Sys.Fabric.Stats()
	injDrop, injDup := in.Sys.Fabric.InjectStats()
	reg.Counter(`comb_packets_total{fate="sent"}`, pktHelp).Add(packets)
	reg.Counter(`comb_packets_total{fate="delivered"}`, pktHelp).Add(delivered)
	reg.Counter(`comb_packets_total{fate="lost"}`, pktHelp).Add(in.Sys.Fabric.Lost())
	reg.Counter(`comb_packets_total{fate="injected_drop"}`, pktHelp).Add(injDrop)
	reg.Counter(`comb_packets_total{fate="injected_dup"}`, pktHelp).Add(injDup)
	reg.Counter("comb_wire_bytes_total", "Bytes put on the wire, headers included.").Add(wireBytes)

	if adv, stall, ok := in.WindowStats(); ok {
		winHelp := "Conservative-engine time windows, by outcome."
		reg.Counter(`comb_sim_window_advanced_total`, winHelp).Add(int64(adv))
		reg.Counter(`comb_sim_window_stall_total`, winHelp).Add(int64(stall))
	}
}

// hashedResult is the canonical serialization ResultHash covers: the
// method name, its typed result, and the hardware counters — nothing
// host-dependent.  The shape is frozen: manifests hashed by earlier
// builds must keep verifying under Replay.
type hashedResult struct {
	Method string        `json:"method"`
	Value  method.Result `json:"value"`
	Stats  *RunStats     `json:"stats"`
}

// HashOutcome computes the result hash Replay verifies — "sha256:<hex>"
// over the canonical {method, value, stats} serialization.
func HashOutcome(methodName string, value method.Result, stats *RunStats) (string, error) {
	return obs.HashResult(hashedResult{Method: methodName, Value: value, Stats: stats})
}

// buildManifest assembles the provenance record for a finished run.
// params is the method's validated (defaults applied) parameter value.
func buildManifest(s spec.Spec, m method.Method, params any, out *Outcome) (*obs.Manifest, error) {
	mf := obs.NewManifest()
	mf.Method = m.Name()
	mf.System = s.System
	mf.CPUs = s.CPUs
	mf.Nodes = s.Nodes
	mf.Seed = s.Seed
	if s.Faults != nil {
		mf.Faults = s.Faults.String()
		_, mf.MaskedFaults = s.Faults.Masked(transport.ToleranceOf(s.System))
	}
	mf.Tolerance = toleranceNames(transport.ToleranceOf(s.System))
	if !s.Strategy.IsGrid() {
		mf.Strategy = s.Strategy.String()
	}
	switch c := params.(type) {
	case core.PollingConfig:
		// Keep the dedicated manifest fields for the paper's two primary
		// methods so existing manifests and their consumers keep working.
		cc := c
		mf.Polling = &cc
	case core.PWWConfig:
		cc := c
		mf.PWW = &cc
	default:
		b, err := json.Marshal(params)
		if err != nil {
			return nil, fmt.Errorf("comb: manifest params: %w", err)
		}
		mf.Params = b
	}
	var err error
	mf.ResultHash, err = HashOutcome(m.Name(), out.Value, out.Stats)
	return mf, err
}

// toleranceNames renders a transport tolerance as the manifest's sorted
// fault-name list.
func toleranceNames(t transport.Tolerance) []string {
	var out []string
	if t.Duplication {
		out = append(out, "dup")
	}
	if t.Loss {
		out = append(out, "loss")
	}
	if t.Reorder {
		out = append(out, "reorder")
	}
	return out
}

// SpecFromManifest reconstructs the spec a manifest records, ready for
// Run.
func SpecFromManifest(mf *obs.Manifest) (spec.Spec, error) {
	s := spec.Spec{
		Method:  spec.Method(mf.Method),
		System:  mf.System,
		CPUs:    mf.CPUs,
		Nodes:   mf.Nodes,
		Seed:    mf.Seed,
		Polling: mf.Polling,
		PWW:     mf.PWW,
	}
	if len(mf.Params) > 0 {
		m, err := method.Lookup(mf.Method)
		if err != nil {
			return spec.Spec{}, fmt.Errorf("comb: unknown method %q", mf.Method)
		}
		p, err := m.DecodeParams(mf.Params)
		if err != nil {
			return spec.Spec{}, fmt.Errorf("comb: manifest params: %w", err)
		}
		s.Params = p
	}
	if mf.Faults != "" {
		fs, err := faultinject.Parse(mf.Faults)
		if err != nil {
			return spec.Spec{}, fmt.Errorf("comb: manifest faults: %w", err)
		}
		s.Faults = &fs
	}
	if mf.Strategy != "" {
		st, err := strategy.Parse(mf.Strategy)
		if err != nil {
			return spec.Spec{}, fmt.Errorf("comb: manifest strategy: %w", err)
		}
		s.Strategy = st
	}
	if _, _, err := s.Resolve(); err != nil {
		return spec.Spec{}, err
	}
	return s, nil
}

// snapshot collects hardware counters from a finished instance.
func snapshot(in *platform.Instance) *RunStats {
	st := &RunStats{}
	st.Packets, st.WireBytes, _ = in.Sys.Fabric.Stats()
	for _, n := range in.Sys.Nodes {
		st.CPUs = append(st.CPUs, NodeCPU{
			Node:      n.ID,
			Cores:     n.CPU.Cores(),
			User:      time.Duration(n.CPU.Usage(cluster.User)),
			Kernel:    time.Duration(n.CPU.Usage(cluster.Kernel)),
			Interrupt: time.Duration(n.CPU.Usage(cluster.Interrupt)),
		})
	}
	return st
}
