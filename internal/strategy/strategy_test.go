package strategy

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical String() form
	}{
		{"grid", "grid"},
		{"bisect", "bisect:target=0.5"},
		{"bisect:target=0.25", "bisect:target=0.25"},
		{"knee", "knee:budget=12"},
		{"knee:budget=6", "knee:budget=6"},
		{"adaptive-reps", "adaptive-reps:reltol=0.05,confidence=0.95,minreps=3,maxreps=16"},
		{"adaptive-reps:reltol=0.1,maxreps=8", "adaptive-reps:reltol=0.1,confidence=0.95,minreps=3,maxreps=8"},
		{"adaptive-reps:confidence=0.99,minreps=4", "adaptive-reps:reltol=0.05,confidence=0.99,minreps=4,maxreps=16"},
	}
	for _, c := range cases {
		s, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := s.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical form re-parses to itself.
		s2, err := Parse(s.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", s.String(), err)
		}
		if *s2 != *s {
			t.Errorf("round-trip changed spec: %+v vs %+v", s, s2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"sorted",                            // unknown strategy
		"grid:target=1",                     // grid takes no knobs
		"bisect:budget=3",                   // inapplicable knob
		"knee:target=0.5",                   // inapplicable knob
		"adaptive-reps:target=0.5",          // inapplicable knob
		"knee:budget=-1",                    // negative budget
		"adaptive-reps:minreps=1",           // variance needs two samples
		"adaptive-reps:minreps=8,maxreps=4", // cap below floor
		"adaptive-reps:confidence=1.5",      // out of (0,1)
		"adaptive-reps:reltol=-0.1",         // negative tolerance
		"bisect:target=abc",                 // unparsable value
		"bisect:target",                     // not key=value
		"bisect:speed=9",                    // unknown knob
		"adaptive-reps:confidence=NaN",      // not finite
		"adaptive-reps:reltol=NaN",          // not finite
		"adaptive-reps:reltol=+Inf",         // not finite
		"bisect:target=NaN",                 // not finite
		"bisect:target=-Inf",                // not finite
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestIsGrid(t *testing.T) {
	var nilSpec *Spec
	if !nilSpec.IsGrid() {
		t.Error("nil spec should be grid")
	}
	for _, in := range []string{"grid", ""} {
		s := &Spec{Name: in}
		if !s.IsGrid() {
			t.Errorf("%q should be grid", in)
		}
	}
	s, _ := Parse("bisect")
	if s.IsGrid() {
		t.Error("bisect is not grid")
	}
}

func TestJSONWireForm(t *testing.T) {
	s, _ := Parse("adaptive-reps:reltol=0.1")
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != *s {
		t.Fatalf("JSON round trip: %+v vs %+v", *s, back)
	}
	// Grid marshals to just the name: zero knobs are omitted.
	g, _ := Parse("grid")
	raw, _ = json.Marshal(g)
	if string(raw) != `{"name":"grid"}` {
		t.Fatalf("grid wire form = %s", raw)
	}
}

func TestValidateFoldsEmptyNameToGrid(t *testing.T) {
	s := &Spec{}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Name != Grid {
		t.Fatalf("empty name validated to %q", s.Name)
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("Names() = %v", names)
	}
	joined := strings.Join(names, ",")
	if joined != "adaptive-reps,bisect,grid,knee" {
		t.Fatalf("Names() = %v", names)
	}
}
