// Package scenario turns COMB's "one spec, many executors" property
// into a differential test oracle.  A Pack is a named, versioned set of
// small workloads plus one fault/seed profile; expanding a pack runs
// every workload across every registered transport, faulted and clean,
// and a registry of metamorphic Relations then asserts cross-run
// properties of the whole result matrix — availability never rises when
// wire faults are added, post-work-wait time grows with message size on
// a host-progressed transport, replaying a cell cold reproduces its
// hash — instead of judging each run in isolation.
//
// Packs are stored as replayable JSON manifests (testdata/scenarios/ in
// this repository) whose workloads are ordinary versioned spec
// documents, so a pack cell, a `comb run -spec` invocation, and a serve
// job body are literally the same wire schema.  Like internal/spec,
// this package resolves methods through the registry and takes no
// position on which methods exist: callers must ensure the methods a
// pack names are registered (blank-import comb/internal/method/all for
// the built-ins).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"comb/internal/faultinject"
	"comb/internal/spec"
)

// PackVersion is the current pack-manifest schema version.  Decoding a
// manifest carrying any other value (or none) fails with a
// *PackVersionError: scenario packs are long-lived fixtures, and a
// silent best-effort parse would let a schema drift rot the oracle.
//
// Version 1: the fields of packWire below, with "workloads" a list of
// named version-1 spec documents and "faults" in
// faultinject.Spec.String() form.
const PackVersion = 1

// DefaultDir is where this repository keeps its committed packs,
// relative to the repo root (the CLI's working directory in CI).
const DefaultDir = "testdata/scenarios"

// PackVersionError reports a pack manifest whose packVersion this build
// does not speak.  Got is zero when the field was absent.
type PackVersionError struct {
	Got int
}

func (e *PackVersionError) Error() string {
	if e.Got == 0 {
		return fmt.Sprintf("scenario: pack manifest has no packVersion field (this build speaks version %d)", PackVersion)
	}
	return fmt.Sprintf("scenario: unsupported packVersion %d (this build speaks version %d)", e.Got, PackVersion)
}

// Workload is one named measurement template inside a pack.  Its Spec
// leaves System and Faults empty — the matrix expansion supplies every
// transport, and the pack's single fault profile applies uniformly — so
// one workload document yields one matrix row.
type Workload struct {
	// Name labels the workload in relation reports ("pww-64k").
	Name string
	// Spec is the measurement template: method plus parameters, no
	// system, no faults.  A zero Seed inherits the pack seed.
	Spec spec.Spec
}

// Pack is one scenario: a fault/seed profile plus the workloads it
// degrades.
type Pack struct {
	// PackVersion is the manifest schema version (always PackVersion
	// after a successful load).
	PackVersion int
	// Name identifies the pack ("lossy-link"); lowercase words joined
	// by dashes.
	Name string
	// Description says what the scenario models, for `selfcheck -pack`
	// output and the docs.
	Description string
	// Seed is the default RNG seed every cell inherits (workloads may
	// override).  Non-zero, so every cell is replayable by seed.
	Seed uint64
	// Faults is the pack's fault profile in faultinject.Spec.String()
	// form; empty means a clean pack.  Faults a transport cannot survive
	// are masked per cell at run time, exactly as `comb run -faults`
	// masks them (see internal/faultinject).
	Faults string
	// Workloads are the measurement templates, in manifest order.
	Workloads []Workload
}

// packWire is the version-1 JSON manifest.  Field names are the schema;
// changing any requires a PackVersion bump.
type packWire struct {
	PackVersion int            `json:"packVersion"`
	Name        string         `json:"name"`
	Description string         `json:"description,omitempty"`
	Seed        uint64         `json:"seed"`
	Faults      string         `json:"faults,omitempty"`
	Workloads   []workloadWire `json:"workloads"`
}

type workloadWire struct {
	Name string          `json:"name"`
	Spec json.RawMessage `json:"spec"`
}

var packNameRE = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)

// UnmarshalJSON decodes a version-1 pack manifest strictly: the version
// is checked first, an unknown key at the top level or in a workload
// entry is rejected (a misspelt "faults" would otherwise run every cell
// clean), workload specs decode through spec.Spec's own versioned strict
// decoder, and the assembled pack must Validate.
func (p *Pack) UnmarshalJSON(b []byte) error {
	var probe struct {
		PackVersion *int `json:"packVersion"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return fmt.Errorf("scenario: pack manifest: %w", err)
	}
	if probe.PackVersion == nil {
		return &PackVersionError{}
	}
	if *probe.PackVersion != PackVersion {
		return &PackVersionError{Got: *probe.PackVersion}
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var w packWire
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("scenario: pack manifest: %w", err)
	}
	out := Pack{
		PackVersion: w.PackVersion,
		Name:        w.Name,
		Description: w.Description,
		Seed:        w.Seed,
		Faults:      w.Faults,
	}
	for _, ww := range w.Workloads {
		var s spec.Spec
		if err := json.Unmarshal(ww.Spec, &s); err != nil {
			return fmt.Errorf("scenario: pack %q workload %q: %w", w.Name, ww.Name, err)
		}
		out.Workloads = append(out.Workloads, Workload{Name: ww.Name, Spec: s})
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*p = out
	return nil
}

// MarshalJSON writes the version-1 manifest, stamping the current
// PackVersion.
func (p Pack) MarshalJSON() ([]byte, error) {
	w := packWire{
		PackVersion: PackVersion,
		Name:        p.Name,
		Description: p.Description,
		Seed:        p.Seed,
		Faults:      p.Faults,
	}
	for _, wl := range p.Workloads {
		sb, err := json.Marshal(wl.Spec)
		if err != nil {
			return nil, fmt.Errorf("scenario: pack %q workload %q: %w", p.Name, wl.Name, err)
		}
		w.Workloads = append(w.Workloads, workloadWire{Name: wl.Name, Spec: sb})
	}
	return json.Marshal(w)
}

// Validate checks the pack's structural rules: a well-formed name, a
// non-zero seed (cells must be replayable), a parseable fault profile,
// and uniquely named workloads whose specs leave the matrix axes
// (system, faults) to the expansion.  Workload specs are normalized —
// method resolved, parameters validated — so a broken template fails at
// load time, not mid-matrix.
func (p *Pack) Validate() error {
	if !packNameRE.MatchString(p.Name) {
		return fmt.Errorf("scenario: pack name %q must be lowercase words joined by dashes", p.Name)
	}
	if p.Seed == 0 {
		return fmt.Errorf("scenario: pack %q needs a non-zero seed (cells must be replayable)", p.Name)
	}
	if p.Faults != "" {
		fs, err := faultinject.Parse(p.Faults)
		if err != nil {
			return fmt.Errorf("scenario: pack %q faults: %w", p.Name, err)
		}
		if fs.Zero() {
			return fmt.Errorf("scenario: pack %q fault profile %q is a no-op; drop the field instead", p.Name, p.Faults)
		}
	}
	if len(p.Workloads) == 0 {
		return fmt.Errorf("scenario: pack %q has no workloads", p.Name)
	}
	seen := make(map[string]bool, len(p.Workloads))
	for _, wl := range p.Workloads {
		if wl.Name == "" {
			return fmt.Errorf("scenario: pack %q has an unnamed workload", p.Name)
		}
		if seen[wl.Name] {
			return fmt.Errorf("scenario: pack %q workload %q appears twice", p.Name, wl.Name)
		}
		seen[wl.Name] = true
		if wl.Spec.System != "" {
			return fmt.Errorf("scenario: pack %q workload %q pins system %q; the matrix supplies every transport", p.Name, wl.Name, wl.Spec.System)
		}
		if wl.Spec.Faults != nil && !wl.Spec.Faults.Zero() {
			return fmt.Errorf("scenario: pack %q workload %q carries its own faults; the pack profile is the only fault source", p.Name, wl.Name)
		}
		probe := wl.Spec
		probe.System = "ideal" // any registered system; normalization does not check it
		if _, _, err := probe.Normalized(); err != nil {
			return fmt.Errorf("scenario: pack %q workload %q: %w", p.Name, wl.Name, err)
		}
	}
	return nil
}

// FaultSpec parses the pack's fault profile (nil for a clean pack).
// Validate has already vetted the string, so errors here mean the pack
// was mutated after loading.
func (p *Pack) FaultSpec() (*faultinject.Spec, error) {
	if p.Faults == "" {
		return nil, nil
	}
	fs, err := faultinject.Parse(p.Faults)
	if err != nil {
		return nil, fmt.Errorf("scenario: pack %q faults: %w", p.Name, err)
	}
	return &fs, nil
}

// Load reads and validates one pack manifest.
func Load(path string) (*Pack, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var p Pack
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &p, nil
}

// LoadDir loads every *.json manifest in dir, sorted by pack name, and
// rejects duplicate names: a pack's name is its identity in `comb
// selfcheck -pack NAME` and in relation reports.
func LoadDir(dir string) ([]*Pack, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no pack manifests (*.json) in %s", dir)
	}
	sort.Strings(paths)
	byName := make(map[string]string, len(paths))
	var packs []*Pack
	for _, path := range paths {
		p, err := Load(path)
		if err != nil {
			return nil, err
		}
		if prev, dup := byName[p.Name]; dup {
			return nil, fmt.Errorf("scenario: pack %q defined by both %s and %s", p.Name, prev, path)
		}
		byName[p.Name] = path
		packs = append(packs, p)
	}
	sort.Slice(packs, func(i, j int) bool { return packs[i].Name < packs[j].Name })
	return packs, nil
}

// Names lists the packs' names in sorted order.
func Names(packs []*Pack) []string {
	names := make([]string, len(packs))
	for i, p := range packs {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// Find returns the named pack from a loaded set.
func Find(packs []*Pack, name string) (*Pack, error) {
	for _, p := range packs {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("scenario: no pack named %q (have %s)", name, strings.Join(Names(packs), ", "))
}
