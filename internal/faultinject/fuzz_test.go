package faultinject

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// FuzzFaultSpecParse checks Parse against String: a spec Parse accepts
// renders to a string Parse reads back as the same spec, and that string
// is a fixed point of the round trip.  The corpus starts from the fault
// specs of the scenario packs and the result corpus under testdata/, plus
// durations the short form used to round.
func FuzzFaultSpecParse(f *testing.F) {
	packs, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(packs) == 0 {
		f.Fatalf("no scenario packs: %v", err)
	}
	for _, path := range packs {
		var pack struct{ Faults string }
		if b, err := os.ReadFile(path); err != nil || json.Unmarshal(b, &pack) != nil {
			f.Fatalf("read %s: %v", path, err)
		}
		f.Add(pack.Faults)
	}
	corpus, err := os.ReadFile("../../testdata/corpus.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`/faults=([^/" ]+)`).FindAllSubmatch(corpus, -1) {
		f.Add(string(m[1]))
	}
	for _, in := range []string{"delay=0.2:12345ns", "jitter=0.1:1234567ns", "delay=0.2:20000s", "reorder=0.1,delay=0:5us"} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		out := s.String()
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which Parse rejects: %v", in, out, err)
		}
		if back != s {
			t.Fatalf("Parse(%q) = %#v renders %q, which parses as %#v", in, s, out, back)
		}
		if again := back.String(); again != out {
			t.Fatalf("String is not a fixed point: %q then %q", out, again)
		}
	})
}
