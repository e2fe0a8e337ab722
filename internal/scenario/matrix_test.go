package scenario

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"comb/internal/method/pingpong"
	"comb/internal/spec"
	"comb/internal/strategy"
	"comb/internal/transport"
)

// tinyPack is a one-workload faulted pack small enough to simulate in
// unit tests.
func tinyPack(t *testing.T) *Pack {
	t.Helper()
	p := &Pack{
		PackVersion: PackVersion,
		Name:        "tiny",
		Seed:        9,
		Faults:      "drop=0.05",
		Workloads: []Workload{
			{Name: "pp-1k", Spec: spec.Spec{Method: "pingpong", Params: pingpong.Params{MsgSize: 1024, Reps: 2}}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("tiny pack invalid: %v", err)
	}
	return p
}

func TestExpandGrid(t *testing.T) {
	p := tinyPack(t)
	cells, err := Expand(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	systems := transport.Names()
	if want := len(systems) * 2; len(cells) != want {
		t.Fatalf("faulted pack expands to %d cells, want %d (systems × {clean,faulted})", len(cells), want)
	}
	keys := make(map[string]bool)
	for _, c := range cells {
		if c.Spec.Seed != p.Seed {
			t.Errorf("cell %s/%s did not inherit pack seed: %d", c.Workload, c.System, c.Spec.Seed)
		}
		if c.Faulted != (c.Spec.Faults != nil) {
			t.Errorf("cell %s/%s faulted=%v but spec faults=%v", c.Workload, c.System, c.Faulted, c.Spec.Faults)
		}
		if keys[c.Key] {
			t.Errorf("duplicate cell key %s", c.Key)
		}
		keys[c.Key] = true
	}

	// A clean pack expands to one cell per (workload, system).
	p.Faults = ""
	cells, err = Expand(p, []string{"ideal", "gm"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("clean pack over 2 systems expands to %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Faulted {
			t.Errorf("clean pack produced a faulted cell: %s", c.Key)
		}
	}
}

func TestExpandSeedOverride(t *testing.T) {
	p := tinyPack(t)
	p.Workloads[0].Spec.Seed = 123
	cells, err := Expand(p, []string{"ideal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Spec.Seed != 123 {
			t.Errorf("workload seed override lost: cell seed %d", c.Spec.Seed)
		}
	}
}

// TestReplayLine pins the reproduction vocabulary: the cell's full
// normalized spec quoted as the inline document `comb run -spec`
// accepts, plus the frozen spec key.
func TestReplayLine(t *testing.T) {
	p := tinyPack(t)
	cells, err := Expand(p, []string{"tcp"})
	if err != nil {
		t.Fatal(err)
	}
	var clean, faulted *Cell
	for _, c := range cells {
		if c.Faulted {
			faulted = c
		} else {
			clean = c
		}
	}
	cr := clean.Replay()
	for _, want := range []string{"comb run -spec '{", `"method":"pingpong"`, `"system":"tcp"`, "(spec key " + clean.Key + ")"} {
		if !strings.Contains(cr, want) {
			t.Errorf("clean replay %q missing %q", cr, want)
		}
	}
	if strings.Contains(cr, "faults") {
		t.Errorf("clean replay %q mentions faults", cr)
	}
	if !strings.Contains(faulted.Replay(), `drop=0.05,seed=9`) {
		t.Errorf("faulted replay %q missing canonical fault string", faulted.Replay())
	}
}

// TestReplayLineRoundTrip is the regression for the replay-line fidelity
// bug: the quoted document must decode through the spec parser into a
// spec whose key is exactly the cell's frozen key — method knobs,
// faults, and the strategy stamp all survive.
func TestReplayLineRoundTrip(t *testing.T) {
	p := tinyPack(t)
	st, err := strategy.Parse("bisect:target=0.5")
	if err != nil {
		t.Fatal(err)
	}
	// Stamp one workload with a non-grid strategy so the round trip
	// proves the stamp is carried, not just absent everywhere.
	p.Workloads[0].Spec.Strategy = st
	cells, err := Expand(p, []string{"tcp"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		line := c.Replay()
		start := strings.Index(line, "'")
		end := strings.LastIndex(line, "'")
		if start < 0 || end <= start {
			t.Fatalf("replay line has no quoted document: %q", line)
		}
		var back spec.Spec
		if err := json.Unmarshal([]byte(line[start+1:end]), &back); err != nil {
			t.Fatalf("replay document does not parse: %v\nline: %s", err, line)
		}
		norm, m, err := back.Normalized()
		if err != nil {
			t.Fatalf("replay document does not normalize: %v", err)
		}
		if key := spec.KeyOf(norm, m); key != c.Key {
			t.Errorf("replay round trip changed the key:\n  cell:   %s\n  replay: %s\n  line:   %s", c.Key, key, line)
		}
	}
	if c := cells[0]; c.Spec.Strategy.IsGrid() {
		t.Fatal("strategy stamp lost during expansion")
	}
}

func TestCellLookupAndCleanTwin(t *testing.T) {
	p := tinyPack(t)
	cells, err := Expand(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := &Matrix{Pack: p, Cells: cells}
	f := m.Cell("pp-1k", "gm", true)
	if f == nil || !f.Faulted || f.System != "gm" {
		t.Fatalf("Cell lookup failed: %+v", f)
	}
	twin := m.CleanTwin(f)
	if twin == nil || twin.Faulted || twin.System != "gm" || twin.Workload != f.Workload {
		t.Fatalf("CleanTwin(%v) = %+v", f.Key, twin)
	}
	if got := m.CleanTwin(twin); got != twin {
		t.Fatalf("CleanTwin of a clean cell should be itself")
	}
	if m.Cell("pp-1k", "no-such", false) != nil {
		t.Fatal("Cell lookup invented a system")
	}
}

// TestRunPackTiny runs a real one-workload pack end to end through the
// oracle: every cell simulates, every relation holds, and the faulted
// cells carry result hashes a cold replay can be compared against.
func TestRunPackTiny(t *testing.T) {
	p := tinyPack(t)
	rep, err := RunPack(context.Background(), p, Options{Workers: 2, Systems: []string{"ideal", "tcp"}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("tiny pack failed the oracle:\n%s", rep)
	}
	if rep.Cells != 4 || rep.Faulted != 2 {
		t.Fatalf("report counted %d cells (%d faulted), want 4 (2)", rep.Cells, rep.Faulted)
	}
	if rep.Relations < 6 {
		t.Fatalf("relation catalog has %d relations, want >= 6", rep.Relations)
	}
	if !strings.HasPrefix(rep.String(), "PASS") {
		t.Fatalf("report string %q", rep.String())
	}
}

// TestRunPackCancelled proves a cancelled context aborts the matrix run
// with the context's error rather than a partial report.
func TestRunPackCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunPack(ctx, tinyPack(t), Options{Systems: []string{"ideal"}}); err == nil {
		t.Fatal("cancelled RunPack returned no error")
	}
}
