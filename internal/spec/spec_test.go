package spec

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"comb/internal/core"
	"comb/internal/faultinject"
	_ "comb/internal/method/all"
	"comb/internal/method/pingpong"
	"comb/internal/sim"
	"comb/internal/strategy"
)

var update = flag.Bool("update", false, "rewrite the golden spec documents")

// goldenSpecs are the wire-schema fixtures: one per params route
// (dedicated polling/pww fields, generic method params) plus the
// optional axes (cpus, seed, faults, strategy, nodes).  Their serialized
// forms live in testdata/ and pin the version-3 schema byte for byte.
func goldenSpecs() []struct {
	name string
	spec Spec
} {
	return []struct {
		name string
		spec Spec
	}{
		{"polling", Spec{
			Method:  MethodPolling,
			System:  "gm",
			Polling: &core.PollingConfig{PollInterval: 64, WorkTotal: 1_000_000},
		}},
		{"pww_axes", Spec{
			Method: MethodPWW,
			System: "portals",
			CPUs:   2,
			Seed:   42,
			Faults: &faultinject.Spec{Drop: 0.01, DelayProb: 0.2, DelayMax: sim.Time(50 * time.Microsecond)},
			PWW:    &core.PWWConfig{WorkInterval: 500_000, Reps: 8},
		}},
		{"pingpong_params", Spec{
			Method: MethodPingpong,
			System: "ideal",
			Params: pingpong.Params{MsgSize: 4096, Reps: 10},
		}},
		{"polling_strategy", Spec{
			Method:   MethodPolling,
			System:   "tcp",
			Strategy: &strategy.Spec{Name: strategy.Bisect, Target: 0.5},
			Polling:  &core.PollingConfig{PollInterval: 1000, WorkTotal: 10_000_000},
		}},
		{"polling_nodes", Spec{
			Method:  MethodPolling,
			System:  "gm",
			Nodes:   8,
			Polling: &core.PollingConfig{PollInterval: 64, WorkTotal: 1_000_000},
		}},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden.json")
}

// TestGoldenRoundTrip pins the wire schema: each fixture must marshal
// to exactly its golden document, and decoding the golden document and
// re-encoding it must reproduce the same bytes.  A diff here means the
// schema changed and Version must be bumped (or the change reverted).
func TestGoldenRoundTrip(t *testing.T) {
	for _, g := range goldenSpecs() {
		t.Run(g.name, func(t *testing.T) {
			got, err := json.MarshalIndent(g.spec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := goldenPath(g.name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/spec -update` after an intentional schema change)", err)
			}
			if string(got) != string(want) {
				t.Errorf("wire document drifted from golden %s:\ngot:\n%swant:\n%s", path, got, want)
			}

			// Decode → re-encode must be lossless.
			var back Spec
			if err := json.Unmarshal(want, &back); err != nil {
				t.Fatal(err)
			}
			again, err := json.MarshalIndent(back, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			again = append(again, '\n')
			if string(again) != string(want) {
				t.Errorf("round trip not lossless:\nfirst:\n%ssecond:\n%s", want, again)
			}

			// And the decoded spec must describe the same measurement.
			if got, want := back.Key(), g.spec.Key(); got != want {
				t.Errorf("round-tripped key = %q, want %q", got, want)
			}
		})
	}
}

func TestUnmarshalVersionErrors(t *testing.T) {
	var s Spec
	err := json.Unmarshal([]byte(`{"method":"pww","system":"gm"}`), &s)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != 0 {
		t.Fatalf("missing specVersion: err = %v", err)
	}
	if !strings.Contains(err.Error(), "no specVersion field") {
		t.Errorf("missing-version message: %q", err)
	}

	err = json.Unmarshal([]byte(`{"specVersion":4,"method":"pww"}`), &s)
	ve = nil
	if !errors.As(err, &ve) || ve.Got != 4 {
		t.Fatalf("foreign specVersion: err = %v", err)
	}
	if !strings.Contains(err.Error(), "unsupported specVersion 4") {
		t.Errorf("foreign-version message: %q", err)
	}
}

// TestUnmarshalVersionCompat: a version-1 document (no strategy block)
// still decodes, defaulting to the grid strategy; a version-1 document
// that smuggles in a strategy block is rejected.
func TestUnmarshalVersionCompat(t *testing.T) {
	var s Spec
	v1 := `{"specVersion":1,"method":"pww","system":"gm","pww":{"WorkInterval":500000}}`
	if err := json.Unmarshal([]byte(v1), &s); err != nil {
		t.Fatalf("version-1 document rejected: %v", err)
	}
	if s.SpecVersion != 1 || !s.Strategy.IsGrid() {
		t.Fatalf("version-1 decode: %+v", s)
	}
	// Re-encoding stamps the current version; the measurement is the same.
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"specVersion":3`) {
		t.Fatalf("re-encode did not stamp version 3: %s", out)
	}

	bad := `{"specVersion":1,"method":"pww","system":"gm","strategy":{"name":"bisect"},"pww":{"WorkInterval":500000}}`
	if err := json.Unmarshal([]byte(bad), &s); err == nil ||
		!strings.Contains(err.Error(), "needs specVersion 2") {
		t.Fatalf("v1 + strategy: err = %v", err)
	}

	badNodes := `{"specVersion":2,"method":"pww","system":"gm","nodes":8,"pww":{"WorkInterval":500000}}`
	if err := json.Unmarshal([]byte(badNodes), &s); err == nil ||
		!strings.Contains(err.Error(), "needs specVersion 3") {
		t.Fatalf("v2 + nodes: err = %v", err)
	}

	v3 := `{"specVersion":3,"method":"pww","system":"gm","nodes":8,"pww":{"WorkInterval":500000}}`
	if err := json.Unmarshal([]byte(v3), &s); err != nil {
		t.Fatalf("version-3 nodes document rejected: %v", err)
	}
	if s.Nodes != 8 {
		t.Fatalf("version-3 decode: %+v", s)
	}

	v2 := `{"specVersion":2,"method":"pww","system":"gm","strategy":{"name":"bisect","target":0.25},"pww":{"WorkInterval":500000}}`
	if err := json.Unmarshal([]byte(v2), &s); err != nil {
		t.Fatalf("version-2 strategy document rejected: %v", err)
	}
	if s.Strategy == nil || s.Strategy.Name != "bisect" || s.Strategy.Target != 0.25 {
		t.Fatalf("strategy block lost: %+v", s.Strategy)
	}
	// Invalid strategies fail at decode time, not run time.
	badKnob := `{"specVersion":2,"method":"pww","strategy":{"name":"bisect","budget":4}}`
	if err := json.Unmarshal([]byte(badKnob), &s); err == nil ||
		!strings.Contains(err.Error(), "does not take") {
		t.Fatalf("invalid strategy knob: err = %v", err)
	}
}

func TestUnmarshalStrictness(t *testing.T) {
	var s Spec
	if err := json.Unmarshal([]byte(`{"specVersion":1,"method":"pww","bogusField":3}`), &s); err == nil {
		t.Error("unknown fields must be rejected")
	}
	if err := json.Unmarshal([]byte(`{"specVersion":1,"params":{"reps":2}}`), &s); err == nil ||
		!strings.Contains(err.Error(), "explicit") {
		t.Errorf("params without method: err = %v", err)
	}
	if err := json.Unmarshal([]byte(`{"specVersion":1,"method":"nosuch","params":{}}`), &s); err == nil ||
		!strings.Contains(err.Error(), "unknown method") {
		t.Errorf("unknown method: err = %v", err)
	}
	if err := json.Unmarshal([]byte(`{"specVersion":1,"method":"pww","faults":"drop=banana"}`), &s); err == nil {
		t.Error("malformed faults must be rejected")
	}
}

// TestKeyOptionalSegments pins the frozen key grammar: the classic
// "method/system/hash" for plain specs, with /cpus=, /seed= and
// /faults= segments appended only when those axes are set.
func TestKeyOptionalSegments(t *testing.T) {
	base := Spec{
		Method:  MethodPolling,
		System:  "gm",
		Polling: &core.PollingConfig{PollInterval: 64, WorkTotal: 1_000_000},
	}
	plain := base.Key()
	if strings.Contains(plain, "seed=") || strings.Contains(plain, "faults=") || strings.Contains(plain, "cpus=") {
		t.Fatalf("plain key must carry no optional segments: %q", plain)
	}
	if !strings.HasPrefix(plain, "polling/gm/") {
		t.Fatalf("plain key grammar: %q", plain)
	}

	seeded := base
	seeded.Seed = 7
	if got := seeded.Key(); got != plain+"/seed=7" {
		t.Errorf("seeded key = %q, want %q", got, plain+"/seed=7")
	}

	faulty := base
	faulty.Faults = &faultinject.Spec{Drop: 0.5, Seed: 9}
	want := plain + "/faults=" + faulty.Faults.String()
	if got := faulty.Key(); got != want {
		t.Errorf("faulty key = %q, want %q", got, want)
	}

	// A fault spec without its own seed inherits the spec seed, and the
	// inherited seed shows up in the key: same faults + different seed
	// must never share a cache entry.
	inherit := base
	inherit.Seed = 3
	inherit.Faults = &faultinject.Spec{Drop: 0.5}
	n, _, err := inherit.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Faults.Seed != 3 {
		t.Errorf("fault seed not inherited: %+v", n.Faults)
	}
}

// TestNormalizedParamsEquivalence: the dedicated config pointer and the
// generic Params route describe the same measurement, hence one key.
func TestNormalizedParamsEquivalence(t *testing.T) {
	cfg := core.PWWConfig{WorkInterval: 250_000, Reps: 4}
	viaPtr := Spec{System: "gm", PWW: &cfg}
	viaParams := Spec{Method: MethodPWW, System: "gm", Params: cfg}
	if a, b := viaPtr.Key(), viaParams.Key(); a != b {
		t.Errorf("pointer route key %q != params route key %q", a, b)
	}
}
