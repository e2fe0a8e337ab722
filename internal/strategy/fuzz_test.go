package strategy

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStrategyParse checks Parse against String: a strategy Parse accepts
// has finite knobs and renders to a string Parse reads back as the same
// spec, and that string is a fixed point of the round trip.  The corpus
// starts from the strategy blocks of the spec documents under testdata/,
// plus knobs that are not finite.
func FuzzStrategyParse(f *testing.F) {
	docs, err := filepath.Glob("../spec/testdata/*.json")
	if err != nil || len(docs) == 0 {
		f.Fatalf("no spec documents: %v", err)
	}
	for _, path := range docs {
		var doc struct{ Strategy *Spec }
		if b, err := os.ReadFile(path); err != nil || json.Unmarshal(b, &doc) != nil {
			f.Fatalf("read %s: %v", path, err)
		}
		f.Add(doc.Strategy.String())
	}
	for _, in := range []string{"knee:budget=8", "adaptive-reps:reltol=0.02,maxreps=20",
		"adaptive-reps:confidence=NaN", "adaptive-reps:reltol=+Inf", "bisect:target=-Inf"} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		for _, v := range []float64{s.Target, s.RelTol, s.Confidence} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Parse(%q) = %+v has a knob that is not finite", in, *s)
			}
		}
		out := s.String()
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which Parse rejects: %v", in, out, err)
		}
		if *back != *s {
			t.Fatalf("Parse(%q) = %+v renders %q, which parses as %+v", in, *s, out, *back)
		}
		if again := back.String(); again != out {
			t.Fatalf("String is not a fixed point: %q then %q", out, again)
		}
	})
}
