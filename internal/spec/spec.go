// Package spec defines the one versioned measurement description every
// COMB entry point shares.  A Spec is simultaneously the library facade's
// RunSpec, the sweep runner's schedulable point, the CLI's -spec file
// format, and the serve API's HTTP request body: all four speak the same
// JSON wire schema, stamped with an explicit "specVersion" field, so a
// spec captured from any one of them replays identically through the
// others.
//
// The wire schema is pinned by Version and a golden round-trip test;
// decoding a document with a missing or different specVersion fails with
// a *VersionError rather than guessing.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"comb/internal/core"
	"comb/internal/faultinject"
	"comb/internal/method"
	"comb/internal/strategy"
)

// Version is the current wire-schema version.  MarshalJSON always stamps
// it; UnmarshalJSON accepts the versions listed below and rejects any
// other value (or none) with a *VersionError.
//
// Version 1: the fields of Spec below, with "polling"/"pww" dedicated
// config objects, "faults" in faultinject.Spec.String() form, and
// "params" as the registered method's own JSON parameter payload.
//
// Version 2: version 1 plus an optional "strategy" block (the sweep
// search strategy; see internal/strategy).  A version-1 document is
// still accepted and defaults to the grid strategy; carrying a
// "strategy" block requires stamping specVersion 2.
//
// Version 3: version 2 plus an optional "nodes" field (the cluster size
// for multi-pair topologies; see Spec.Nodes).  Version-1 and version-2
// documents are still accepted and default to the paper's 2 nodes;
// carrying a "nodes" field requires stamping specVersion 3.
const Version = 3

// oldestVersion is the oldest wire-schema version UnmarshalJSON still
// accepts.
const oldestVersion = 1

// Method selects which benchmark method a Spec executes.  Any name in
// method.Names() is valid; the constants below name the built-ins.
type Method string

const (
	// MethodPolling is the paper's §2.1 polling method.
	MethodPolling Method = "polling"
	// MethodPWW is the paper's §2.2 post-work-wait method.
	MethodPWW Method = "pww"
	// MethodPingpong is the blocking round-trip baseline.
	MethodPingpong Method = "pingpong"
	// MethodNetperf is the netperf-style availability baseline (§5).
	MethodNetperf Method = "netperf"
	// MethodCollov is the collective/computation overlap benchmark
	// (max-work-injection over Ibcast/Iallreduce).
	MethodCollov Method = "collov"
	// MethodHalo is the 2D stencil halo exchange (progress disciplines).
	MethodHalo Method = "halo"
)

// VersionError reports a spec document whose specVersion this build does
// not speak.  Got is the version the document carried; zero means the
// field was absent.
type VersionError struct {
	Got int
}

func (e *VersionError) Error() string {
	if e.Got == 0 {
		return fmt.Sprintf("comb: spec document has no specVersion field (this build speaks versions %d-%d)", oldestVersion, Version)
	}
	return fmt.Sprintf("comb: unsupported specVersion %d (this build speaks versions %d-%d)", e.Got, oldestVersion, Version)
}

// Spec describes one measurement: the method, the simulated system, and
// the method's configuration.  It is the single spec type behind
// comb.RunSpec, runner points, `comb run -spec`, and the serve API.
//
// The method configs are pointers so that "unset" is distinguishable from
// a zero-valued config: a nil pointer for the selected method is an
// error (the primary experiment variable has no default), while zero
// fields inside a supplied config follow the documented zero-means-default
// convention (see core.Config).
type Spec struct {
	// SpecVersion is the wire-schema version.  In-memory callers may
	// leave it zero; JSON encoding always stamps the current Version and
	// decoding sets it to the version read (after rejecting any but the
	// current one).
	SpecVersion int
	// Method picks the benchmark method.  Empty infers it from whichever
	// config pointer is set.
	Method Method
	// System is the simulated messaging system ("gm", "portals", ...).
	System string
	// CPUs is the processors-per-node override; 0 or 1 reproduces the
	// paper's uniprocessor testbed.  Multi-processor nodes implement the
	// paper's §7 future work: compare the result's Availability (the
	// classic single-process metric, which SMP inflates) with
	// SystemAvailability (the node-wide metric, which SMP does not fool).
	CPUs int
	// Nodes is the cluster size; 0 or 2 reproduces the paper's two-node
	// testbed.  Larger even counts run the method on Nodes/2 concurrent
	// pairs sharing the switch (the multi-pair scaling axis); only
	// methods implementing method.NodeScaler accept them.  Normalization
	// folds 2 to 0 so explicit-default specs keep the classic keys.
	Nodes int
	// SimWorkers > 1 opts this run into the parallel simulation engine
	// (conservative time windows, one partition per node).  It is an
	// in-memory engine hint only: results are bit-identical to the
	// serial engine, so the field never serializes to the wire document
	// and never enters cache keys or manifests.
	SimWorkers int
	// TraceCap, when > 0, records the last TraceCap packet-level fabric
	// deliveries.  The sweep runner and the serve API ignore it (cached
	// results carry no trace).
	TraceCap int
	// ObsCap, when non-zero, collects the structured phase timeline,
	// keeping the last ObsCap spans (the obs default when negative).
	// Zero leaves span collection off.  Ignored by runner/serve, like
	// TraceCap.
	ObsCap int
	// Seed overrides the wire's jitter/loss RNG seed (0 keeps the
	// platform default) and, when Faults is set without its own seed,
	// seeds the fault injector too — one knob makes a degraded run
	// replayable.
	Seed uint64
	// Faults, when non-nil and non-zero, wraps the transport with
	// deterministic fault injection (packet drop/dup/delay/reorder and
	// CPU jitter bursts).  Faults a transport cannot survive are masked;
	// see internal/faultinject.
	Faults *faultinject.Spec
	// Strategy stamps the measurement protocol the spec was (or should
	// be) evaluated under: nil or grid is the classic dense evaluation;
	// bisect/knee/adaptive-reps describe search (see internal/strategy).
	// A single run simulates identically whatever the strategy — the
	// strategies decide which points of a sweep axis get run, and with
	// how many repetitions — but the stamp enters the cache key and
	// manifests so searched results never alias dense ones.
	Strategy *strategy.Spec
	// Polling configures MethodPolling; it must be non-nil for that
	// method (unless Params carries the config instead).
	Polling *core.PollingConfig
	// PWW configures MethodPWW; it must be non-nil for that method
	// (unless Params carries the config instead).
	PWW *core.PWWConfig
	// Params configures any other registered method (e.g. a
	// pingpong.Params for MethodPingpong); Method must name it
	// explicitly.  For polling and PWW the dedicated pointers above
	// take precedence.
	Params any
}

// Resolve looks the spec's method up in the registry and picks its
// parameter value, inferring the method from the config pointers when
// unset.  The returned params are raw (not yet validated/defaulted).
func (s Spec) Resolve() (method.Method, any, error) {
	name := s.Method
	if name == "" {
		switch {
		case s.Polling != nil && s.PWW != nil:
			return nil, nil, fmt.Errorf("comb: RunSpec sets both Polling and PWW configs; set Method to disambiguate")
		case s.Polling != nil:
			name = MethodPolling
		case s.PWW != nil:
			name = MethodPWW
		case s.Params != nil:
			return nil, nil, fmt.Errorf("comb: RunSpec.Params needs an explicit Method name (have %s)", strings.Join(method.Names(), ", "))
		default:
			return nil, nil, fmt.Errorf("comb: RunSpec needs a method config (Polling or PWW, or Method plus Params)")
		}
	}
	m, err := method.Lookup(string(name))
	if err != nil {
		return nil, nil, fmt.Errorf("comb: unknown method %q (have %s)", name, strings.Join(method.Names(), ", "))
	}
	var params any
	switch name {
	case MethodPolling:
		switch {
		case s.Polling != nil:
			params = *s.Polling
		case s.Params != nil:
			params = s.Params
		default:
			return nil, nil, fmt.Errorf("comb: %s run needs a non-nil Polling config (PollInterval has no default)", name)
		}
	case MethodPWW:
		switch {
		case s.PWW != nil:
			params = *s.PWW
		case s.Params != nil:
			params = s.Params
		default:
			return nil, nil, fmt.Errorf("comb: %s run needs a non-nil PWW config (WorkInterval has no default)", name)
		}
	default:
		if s.Params == nil {
			return nil, nil, fmt.Errorf("comb: %s run needs RunSpec.Params", name)
		}
		params = s.Params
	}
	return m, params, nil
}

// Normalized resolves and validates the spec, returning a canonical copy:
// Method filled in, the method's defaults applied to Params, the
// dedicated Polling/PWW pointers folded into Params, and the fault seed
// defaulted from Seed.  Two specs describing the same measurement
// normalize to the same Key.
func (s Spec) Normalized() (Spec, method.Method, error) {
	m, params, err := s.Resolve()
	if err != nil {
		return s, nil, err
	}
	params, err = m.Validate(params)
	if err != nil {
		return s, nil, err
	}
	if s.CPUs < 0 {
		return s, nil, fmt.Errorf("comb: invalid CPU count %d", s.CPUs)
	}
	n := s
	n.Method = Method(m.Name())
	n.Params = params
	n.Polling, n.PWW = nil, nil
	if n.Nodes == 2 {
		// Two nodes is the default: fold it away so explicit-default
		// specs keep their classic keys.
		n.Nodes = 0
	}
	if n.Nodes != 0 {
		if n.Nodes < 2 {
			return s, nil, fmt.Errorf("comb: invalid node count %d (need at least 2)", n.Nodes)
		}
		ns, ok := m.(method.NodeScaler)
		if !ok {
			return s, nil, fmt.Errorf("comb: method %q only supports the paper's 2-node topology", m.Name())
		}
		if err := ns.ValidateNodes(n.Nodes); err != nil {
			return s, nil, err
		}
	}
	if n.Strategy != nil {
		st := *n.Strategy
		if err := st.Validate(); err != nil {
			return s, nil, err
		}
		if st.IsGrid() {
			// Grid is the default: fold it away so dense specs keep
			// their classic keys whether or not they spell it out.
			n.Strategy = nil
		} else {
			n.Strategy = &st
		}
	}
	if n.Faults != nil {
		if n.Faults.Zero() {
			n.Faults = nil
		} else {
			fs := *n.Faults
			if fs.Seed == 0 {
				fs.Seed = n.Seed
			}
			if err := fs.Validate(); err != nil {
				return s, nil, err
			}
			n.Faults = &fs
		}
	}
	return n, m, nil
}

// KeyOf builds the cache key of an already-normalized spec: the method
// name, the system, and the method's own stable parameter hash
// ("method/system/hash").  Optional axes append only when set — "/cpus=N"
// for multi-processor points, "/seed=N" for an explicit RNG seed,
// "/faults=<spec>" for fault injection, "/strategy=<spec>" for a
// non-grid search strategy — so the classic keys (and every
// committed cache entry) are unchanged.  Method names enter the key, so
// two methods can never collide however their hashes are built.  The hot
// sweep path normalizes each point exactly once and threads the key
// through, so key construction never repeats per point.
func KeyOf(n Spec, m method.Method) string {
	var b strings.Builder
	h := m.Hash(n.Params)
	b.Grow(len(n.Method) + len(n.System) + len(h) + 16)
	b.WriteString(string(n.Method))
	b.WriteByte('/')
	b.WriteString(n.System)
	b.WriteByte('/')
	b.WriteString(h)
	if n.CPUs > 1 {
		b.WriteString("/cpus=")
		b.WriteString(strconv.Itoa(n.CPUs))
	}
	if n.Nodes > 2 {
		b.WriteString("/nodes=")
		b.WriteString(strconv.Itoa(n.Nodes))
	}
	if n.Seed != 0 {
		b.WriteString("/seed=")
		b.WriteString(strconv.FormatUint(n.Seed, 10))
	}
	if n.Faults != nil && !n.Faults.Zero() {
		b.WriteString("/faults=")
		b.WriteString(n.Faults.String())
	}
	if !n.Strategy.IsGrid() {
		b.WriteString("/strategy=")
		b.WriteString(n.Strategy.String())
	}
	return b.String()
}

// Key normalizes the spec and returns its cache key.
func (s Spec) Key() string {
	n, m, err := s.Normalized()
	if err != nil {
		// An invalid spec never reaches the caches; give it a unique-ish
		// key so callers can still log it.
		return fmt.Sprintf("invalid/%+v", s)
	}
	return KeyOf(n, m)
}

// ReplayLine renders the one-command reproduction line for s: the whole
// spec as an inline versioned document, the exact argument `comb run
// -spec` accepts.  Quoting the document is lossless: everything the key
// hashes (method configuration, seed, faults, strategy stamp) survives
// transcription, where a -method/-seed/-faults line drops the method
// knobs and the strategy.
func ReplayLine(s Spec) string {
	b, err := json.Marshal(&s)
	if err != nil {
		// A spec that ran marshals; keep the line usable if that
		// invariant ever breaks.
		return fmt.Sprintf("comb run -method %s -system %s -seed %d", s.Method, s.System, s.Seed)
	}
	return fmt.Sprintf("comb run -spec '%s'", b)
}

// wireSpec is the version-3 JSON document (a superset of version 2:
// the "nodes" field is the only addition).  Field names are the
// schema; changing any of them requires a Version bump.  Spec.SimWorkers
// deliberately has no wire field: the engine choice must never enter a
// serialized spec, a manifest, or a cache key.
type wireSpec struct {
	SpecVersion int                 `json:"specVersion"`
	Method      string              `json:"method,omitempty"`
	System      string              `json:"system,omitempty"`
	CPUs        int                 `json:"cpus,omitempty"`
	Nodes       int                 `json:"nodes,omitempty"`
	TraceCap    int                 `json:"traceCap,omitempty"`
	ObsCap      int                 `json:"obsCap,omitempty"`
	Seed        uint64              `json:"seed,omitempty"`
	Faults      string              `json:"faults,omitempty"`
	Strategy    *strategy.Spec      `json:"strategy,omitempty"`
	Polling     *core.PollingConfig `json:"polling,omitempty"`
	PWW         *core.PWWConfig     `json:"pww,omitempty"`
	Params      json.RawMessage     `json:"params,omitempty"`
}

// MarshalJSON writes the version-2 wire document, stamping the current
// Version.  Typed polling/PWW parameter values (as a normalized spec
// carries in Params) are routed into the dedicated "polling"/"pww"
// fields; any other params marshal under "params" as the method's own
// JSON payload.  A grid strategy is the default and is omitted.
func (s Spec) MarshalJSON() ([]byte, error) {
	w := wireSpec{
		SpecVersion: Version,
		Method:      string(s.Method),
		System:      s.System,
		CPUs:        s.CPUs,
		Nodes:       s.Nodes,
		TraceCap:    s.TraceCap,
		ObsCap:      s.ObsCap,
		Seed:        s.Seed,
		Polling:     s.Polling,
		PWW:         s.PWW,
	}
	if s.Faults != nil && !s.Faults.Zero() {
		w.Faults = s.Faults.String()
	}
	if !s.Strategy.IsGrid() {
		w.Strategy = s.Strategy
	}
	switch p := s.Params.(type) {
	case nil:
	case core.PollingConfig:
		if w.Polling == nil {
			c := p
			w.Polling = &c
		}
	case *core.PollingConfig:
		if w.Polling == nil {
			w.Polling = p
		}
	case core.PWWConfig:
		if w.PWW == nil {
			c := p
			w.PWW = &c
		}
	case *core.PWWConfig:
		if w.PWW == nil {
			w.PWW = p
		}
	default:
		b, err := json.Marshal(s.Params)
		if err != nil {
			return nil, fmt.Errorf("comb: spec params: %w", err)
		}
		w.Params = b
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a version-1 through version-3 wire document
// strictly: unknown fields are rejected, a missing or foreign
// specVersion fails with a *VersionError, and "params" payloads are
// decoded into the registered method's own typed parameters (so Method
// must name one).  Older documents default to the grid strategy and the
// 2-node topology; a document carrying a "strategy" block must stamp at
// least specVersion 2, and one carrying "nodes" at least specVersion 3.
func (s *Spec) UnmarshalJSON(b []byte) error {
	var probe struct {
		SpecVersion *int `json:"specVersion"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return fmt.Errorf("comb: spec document: %w", err)
	}
	if probe.SpecVersion == nil {
		return &VersionError{}
	}
	if *probe.SpecVersion < oldestVersion || *probe.SpecVersion > Version {
		return &VersionError{Got: *probe.SpecVersion}
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var w wireSpec
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("comb: spec document: %w", err)
	}
	if w.SpecVersion < 2 && w.Strategy != nil {
		return fmt.Errorf("comb: spec \"strategy\" needs specVersion 2 (document says %d)", w.SpecVersion)
	}
	if w.SpecVersion < 3 && w.Nodes != 0 {
		return fmt.Errorf("comb: spec \"nodes\" needs specVersion 3 (document says %d)", w.SpecVersion)
	}
	if w.Strategy != nil {
		if err := w.Strategy.Validate(); err != nil {
			return fmt.Errorf("comb: spec strategy: %w", err)
		}
	}
	out := Spec{
		SpecVersion: w.SpecVersion,
		Method:      Method(w.Method),
		System:      w.System,
		CPUs:        w.CPUs,
		Nodes:       w.Nodes,
		TraceCap:    w.TraceCap,
		ObsCap:      w.ObsCap,
		Seed:        w.Seed,
		Strategy:    w.Strategy,
		Polling:     w.Polling,
		PWW:         w.PWW,
	}
	if w.Faults != "" {
		fs, err := faultinject.Parse(w.Faults)
		if err != nil {
			return fmt.Errorf("comb: spec faults: %w", err)
		}
		out.Faults = &fs
	}
	if len(w.Params) > 0 {
		if w.Method == "" {
			return fmt.Errorf("comb: spec \"params\" needs an explicit \"method\" name (have %s)", strings.Join(method.Names(), ", "))
		}
		m, err := method.Lookup(w.Method)
		if err != nil {
			return fmt.Errorf("comb: unknown method %q (have %s)", w.Method, strings.Join(method.Names(), ", "))
		}
		p, err := m.DecodeParams(w.Params)
		if err != nil {
			return fmt.Errorf("comb: spec params: %w", err)
		}
		out.Params = p
	}
	*s = out
	return nil
}
