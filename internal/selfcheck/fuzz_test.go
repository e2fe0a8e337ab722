package selfcheck

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"comb/internal/sim"
	"comb/internal/spec"
)

// TestFuzzFailureReplaysItsCase checks a failure's replay line reruns
// the failing case itself: the quoted document decodes to a spec with
// the case's key, fuzzed method parameters included.  It walks the
// first 200 cases Fuzz draws from seed 1, which cover every fuzzable
// method.
func TestFuzzFailureReplaysItsCase(t *testing.T) {
	names, _ := fuzzableMethods()
	seen := make(map[string]bool)
	rng := sim.NewRand(1)
	for i := 0; i < 200; i++ {
		s := FuzzCase(FuzzSystems[i%len(FuzzSystems)], rng.Uint64())
		seen[string(s.Method)] = true
		line := FuzzFailure{Case: i, Spec: s, Err: errors.New("boom")}.String()
		start, end := strings.Index(line, "'"), strings.LastIndex(line, "'")
		if !strings.Contains(line, "comb run -spec '") || end <= start {
			t.Fatalf("case %d: replay line quotes no spec document: %s", i, line)
		}
		var back spec.Spec
		if err := json.Unmarshal([]byte(line[start+1:end]), &back); err != nil {
			t.Fatalf("case %d: replay document does not decode: %v\n%s", i, err, line)
		}
		if got, want := back.Key(), s.Key(); got != want {
			t.Errorf("case %d: replay runs %s, the case is %s", i, got, want)
		}
	}
	for _, name := range names {
		if !seen[name] {
			t.Errorf("no case of fuzzable method %s among the first 200", name)
		}
	}
}
