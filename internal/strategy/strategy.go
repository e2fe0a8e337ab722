// Package strategy defines how a sweep spends its engine runs: the
// strategy grammar every entry point shares (CLI flags, the versioned
// spec document's "strategy" block, figure manifests) and the pure
// search algorithms behind it.
//
// A Spec names one of four strategies:
//
//   - grid: evaluate every point of the dense axis, in order — the
//     classic behaviour and the default.  Bit-identical to a sweep with
//     no strategy at all.
//   - bisect: binary-search the axis for where the plotted metric
//     crosses Target, touching O(log n) points instead of n (the shape
//     of OpenHPCA's reference-time bisection).
//   - knee: golden-section refinement around the steepest-gradient
//     region, so a bounded budget of points concentrates where the
//     curve bends.
//   - adaptive-reps: per-point repetition until the metric's
//     confidence-interval half-width falls under RelTol of the mean
//     (hard-capped at MaxReps), replacing fixed iteration counts with
//     the variance-driven stopping rule of "MPI Benchmarking
//     Revisited".
//
// The search algorithms (Grid, Bisect, Knee, AdaptiveReps) are pure:
// they see the axis only as an index range and pull values through an
// Eval callback, so internal/sweep can route every evaluation through
// the runner's worker pool, memo, and disk cache — cached points are
// free whatever the strategy.
package strategy

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Strategy names.
const (
	Grid         = "grid"
	Bisect       = "bisect"
	Knee         = "knee"
	AdaptiveReps = "adaptive-reps"
)

// Names lists the valid strategy names, sorted.
func Names() []string { return []string{AdaptiveReps, Bisect, Grid, Knee} }

// Default knob values, applied by Validate when a knob is zero.
const (
	DefaultTarget     = 0.5  // bisect: availability-style fraction
	DefaultBudget     = 12   // knee: extra refinement points
	DefaultRelTol     = 0.05 // adaptive-reps: CI half-width / |mean|
	DefaultConfidence = 0.95 // adaptive-reps: CI confidence level
	DefaultMinReps    = 3    // adaptive-reps: floor (variance needs >= 2)
	DefaultMaxReps    = 16   // adaptive-reps: hard cap
)

// Spec is one parsed strategy: the name plus its knobs.  The zero value
// is not valid; Parse or Validate fill the defaults.  Knobs that do not
// apply to the named strategy must stay zero (Validate enforces it), so
// two specs describing the same search render identically.
//
// The JSON tags are the wire schema of the spec document's "strategy"
// block (specVersion 2); String renders the equivalent one-line CLI and
// cache-key form, "name" or "name:knob=value,...".
type Spec struct {
	// Name picks the strategy: grid, bisect, knee, or adaptive-reps.
	Name string `json:"name"`
	// Target is the metric threshold bisect searches for.
	Target float64 `json:"target,omitempty"`
	// Budget bounds knee's extra refinement evaluations beyond the
	// three seed points.
	Budget int `json:"budget,omitempty"`
	// RelTol is adaptive-reps' stopping rule: stop once the CI
	// half-width is under RelTol*|mean|.
	RelTol float64 `json:"relTol,omitempty"`
	// Confidence is the CI level adaptive-reps targets (0.95 or 0.99).
	Confidence float64 `json:"confidence,omitempty"`
	// MinReps and MaxReps bound adaptive-reps' per-point repetitions.
	MinReps int `json:"minReps,omitempty"`
	MaxReps int `json:"maxReps,omitempty"`
}

// IsGrid reports whether s describes the dense default (a nil spec
// counts as grid).
func (s *Spec) IsGrid() bool { return s == nil || s.Name == "" || s.Name == Grid }

// Parse reads the one-line strategy form: "name" or
// "name:knob=value,knob=value".  The result is validated and
// default-filled, so Parse(x).String() is canonical.
func Parse(text string) (*Spec, error) {
	name, rest, _ := strings.Cut(strings.TrimSpace(text), ":")
	s := &Spec{Name: name}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("strategy: knob %q is not key=value", kv)
			}
			var err error
			switch k {
			case "target":
				s.Target, err = strconv.ParseFloat(v, 64)
			case "budget":
				s.Budget, err = strconv.Atoi(v)
			case "reltol":
				s.RelTol, err = strconv.ParseFloat(v, 64)
			case "confidence":
				s.Confidence, err = strconv.ParseFloat(v, 64)
			case "minreps":
				s.MinReps, err = strconv.Atoi(v)
			case "maxreps":
				s.MaxReps, err = strconv.Atoi(v)
			default:
				return nil, fmt.Errorf("strategy: unknown knob %q (target|budget|reltol|confidence|minreps|maxreps)", k)
			}
			if err != nil {
				return nil, fmt.Errorf("strategy: knob %s: %w", k, err)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the name, rejects knobs that do not apply to it or are
// not finite, and fills the applicable zero knobs with their defaults.  A
// grid spec ends up with every knob zero.
func (s *Spec) Validate() error {
	for _, k := range []struct {
		name string
		v    float64
	}{{"target", s.Target}, {"reltol", s.RelTol}, {"confidence", s.Confidence}} {
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) {
			return fmt.Errorf("strategy: %s %g is not finite", k.name, k.v)
		}
	}
	switch s.Name {
	case "", Grid:
		s.Name = Grid
		if s.Target != 0 || s.Budget != 0 || s.RelTol != 0 || s.Confidence != 0 || s.MinReps != 0 || s.MaxReps != 0 {
			return fmt.Errorf("strategy: grid takes no knobs")
		}
		return nil
	case Bisect:
		if err := s.rejectKnobs("bisect", knob{"budget", s.Budget != 0}, knob{"reltol", s.RelTol != 0},
			knob{"confidence", s.Confidence != 0}, knob{"minreps", s.MinReps != 0}, knob{"maxreps", s.MaxReps != 0}); err != nil {
			return err
		}
		if s.Target == 0 {
			s.Target = DefaultTarget
		}
		return nil
	case Knee:
		if err := s.rejectKnobs("knee", knob{"target", s.Target != 0}, knob{"reltol", s.RelTol != 0},
			knob{"confidence", s.Confidence != 0}, knob{"minreps", s.MinReps != 0}, knob{"maxreps", s.MaxReps != 0}); err != nil {
			return err
		}
		if s.Budget == 0 {
			s.Budget = DefaultBudget
		}
		if s.Budget < 0 {
			return fmt.Errorf("strategy: knee budget %d must be positive", s.Budget)
		}
		return nil
	case AdaptiveReps:
		if err := s.rejectKnobs("adaptive-reps", knob{"target", s.Target != 0}, knob{"budget", s.Budget != 0}); err != nil {
			return err
		}
		if s.RelTol == 0 {
			s.RelTol = DefaultRelTol
		}
		if s.Confidence == 0 {
			s.Confidence = DefaultConfidence
		}
		if s.MinReps == 0 {
			s.MinReps = DefaultMinReps
		}
		if s.MaxReps == 0 {
			s.MaxReps = DefaultMaxReps
		}
		switch {
		case s.RelTol < 0:
			return fmt.Errorf("strategy: reltol %g must be positive", s.RelTol)
		case s.Confidence <= 0 || s.Confidence >= 1:
			return fmt.Errorf("strategy: confidence %g must be in (0,1)", s.Confidence)
		case s.MinReps < 2:
			return fmt.Errorf("strategy: minreps %d must be >= 2 (variance needs two samples)", s.MinReps)
		case s.MaxReps < s.MinReps:
			return fmt.Errorf("strategy: maxreps %d must be >= minreps %d", s.MaxReps, s.MinReps)
		}
		return nil
	default:
		return fmt.Errorf("strategy: unknown strategy %q (have %s)", s.Name, strings.Join(Names(), ", "))
	}
}

type knob struct {
	name string
	set  bool
}

func (s *Spec) rejectKnobs(name string, ks ...knob) error {
	var bad []string
	for _, k := range ks {
		if k.set {
			bad = append(bad, k.name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("strategy: %s does not take %s", name, strings.Join(bad, ", "))
	}
	return nil
}

// String renders the canonical one-line form, with knobs in a fixed
// order and defaults spelled out: Parse(s.String()) reproduces s
// exactly.  It is the form the cache-key "/strategy=" segment and the
// manifest "strategy" field carry.
func (s *Spec) String() string {
	if s == nil {
		return Grid
	}
	var knobs []string
	add := func(k, v string) { knobs = append(knobs, k+"="+v) }
	switch s.Name {
	case Bisect:
		add("target", trimFloat(s.Target))
	case Knee:
		add("budget", strconv.Itoa(s.Budget))
	case AdaptiveReps:
		add("reltol", trimFloat(s.RelTol))
		add("confidence", trimFloat(s.Confidence))
		add("minreps", strconv.Itoa(s.MinReps))
		add("maxreps", strconv.Itoa(s.MaxReps))
	}
	name := s.Name
	if name == "" {
		name = Grid
	}
	if len(knobs) == 0 {
		return name
	}
	return name + ":" + strings.Join(knobs, ",")
}

// trimFloat renders a float without trailing zeros ("0.5", not "0.50").
func trimFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
