package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comb"
	"comb/internal/obs"
	"comb/internal/runner"
	"comb/internal/stats"
	"comb/internal/sweep"
)

// sweepMetricAt runs one custom-sweep point on a throwaway engine and
// extracts the metric, mirroring cmdSweep's curve evaluator.
func sweepMetricAt(t *testing.T, meth, metric, sys string, size int, x int64) (float64, error) {
	t.Helper()
	return sweepMetric(context.Background(), runner.New(runner.Config{}), meth, metric, sweepPointSpec(meth, sys, size, 0, x))
}

func TestSweepPointMetrics(t *testing.T) {
	for _, metric := range []string{"bandwidth", "availability"} {
		v, err := sweepMetricAt(t, "polling", metric, "gm", 100_000, 1_000_000)
		if err != nil {
			t.Fatalf("polling %s: %v", metric, err)
		}
		if v <= 0 {
			t.Errorf("polling %s = %v", metric, v)
		}
	}
	for _, metric := range []string{"bandwidth", "availability", "wait", "overhead", "postrecv"} {
		v, err := sweepMetricAt(t, "pww", metric, "portals", 100_000, 1_000_000)
		if err != nil {
			t.Fatalf("pww %s: %v", metric, err)
		}
		if v < 0 {
			t.Errorf("pww %s = %v", metric, v)
		}
	}
}

func TestSweepPointErrors(t *testing.T) {
	if _, err := sweepMetricAt(t, "polling", "wait", "gm", 1000, 1000); err == nil {
		t.Error("polling has no wait metric")
	}
	if _, err := sweepMetricAt(t, "pww", "nosuch", "gm", 1000, 1000); err == nil {
		t.Error("unknown metric must fail")
	}
	if _, err := sweepMetric(context.Background(), runner.New(runner.Config{}), "nosuch", "bandwidth", runner.Point{}); err == nil {
		t.Error("unknown method must fail")
	}
	if _, err := sweepMetricAt(t, "polling", "bandwidth", "nosuch", 1000, 1000); err == nil {
		t.Error("unknown system must fail")
	}
}

func TestParseStrategyFlag(t *testing.T) {
	if st, err := parseStrategy(""); err != nil || st != nil {
		t.Errorf("empty -strategy = %v, %v; want nil, nil", st, err)
	}
	if st, err := parseStrategy("grid"); err != nil || st != nil {
		t.Errorf("-strategy grid = %v, %v; want nil, nil (grid is the zero value)", st, err)
	}
	st, err := parseStrategy("bisect:target=0.25")
	if err != nil || st == nil || st.Target != 0.25 {
		t.Errorf("-strategy bisect:target=0.25 = %v, %v", st, err)
	}
	if _, err := parseStrategy("bogus"); err == nil {
		t.Error("unknown strategy must fail")
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tbl := &stats.Table{
		XLabel: "x", YLabel: "y",
		Series: []stats.Series{{Name: "s", Points: []stats.Point{{X: 1, Y: 2}}}},
	}
	f := sweep.Figure{ID: "7", Title: "test figure"}
	if err := writeCSV(dir, f, tbl, true, 3, obs.NewRegistry(), nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "fig07.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "series,x,y") {
		t.Fatalf("csv content: %q", b)
	}
	mb, err := os.ReadFile(filepath.Join(dir, "fig07.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf obs.FigureManifest
	if err := json.Unmarshal(mb, &mf); err != nil {
		t.Fatal(err)
	}
	if mf.Figure != "7" || !mf.Quick || mf.Points != 3 {
		t.Fatalf("manifest fields: %+v", mf)
	}
	if mf.CSVSHA256 != obs.HashBytes(b) {
		t.Fatalf("csv hash mismatch: manifest %s, file %s", mf.CSVSHA256, obs.HashBytes(b))
	}
	if mf.Strategy != "" || mf.PointsEvaluated != 0 || mf.PointsSkipped != 0 {
		t.Fatalf("grid manifest must not carry strategy provenance: %+v", mf)
	}

	// A searched build stamps its strategy and point accounting into the
	// manifest and the regenerating command.
	st, err := comb.ParseStrategy("bisect:target=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCSV(dir, f, tbl, false, 3, nil, st, 9, 8); err != nil {
		t.Fatal(err)
	}
	mb, err = os.ReadFile(filepath.Join(dir, "fig07.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &mf); err != nil {
		t.Fatal(err)
	}
	if mf.Strategy != st.String() || mf.PointsEvaluated != 9 || mf.PointsSkipped != 8 {
		t.Fatalf("strategy provenance: %+v", mf)
	}
	if !strings.Contains(mf.Command, "-strategy "+st.String()) {
		t.Fatalf("command must reproduce the strategy: %q", mf.Command)
	}
}

func TestCommandFunctions(t *testing.T) {
	// The plumbing-level command handlers, driven directly.  -no-cache and
	// -obs-dir keep test runs from writing results/ into the repo.
	ctx := context.Background()
	if err := cmdList(); err != nil {
		t.Fatal(err)
	}
	if err := runMethod(ctx, "polling", []string{"-system", "ideal", "-work", "5000000",
		"-obs-dir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if err := runMethod(ctx, "pww", []string{"-system", "ideal", "-reps", "3",
		"-obs-dir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFigure(ctx, []string{"-no-cache"}); err == nil {
		t.Fatal("figure without args must fail")
	}
	if err := cmdFigure(ctx, []string{"-quick", "-chart=false", "-no-cache", "13"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFigure(ctx, []string{"-quick", "-chart=false", "-no-cache",
		"-strategy", "knee:budget=4", "13"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAssess(ctx, []string{"-no-cache"}); err == nil {
		t.Fatal("assess without args must fail")
	}
	if err := cmdSweep(ctx, []string{"-systems", "ideal", "-from", "100000", "-to", "1000000",
		"-points", "1", "-chart=false", "-no-cache"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep(ctx, []string{"-systems", "ideal", "-method", "pww", "-metric", "availability",
		"-from", "100000", "-to", "10000000", "-points", "2", "-chart=false", "-no-cache",
		"-strategy", "bisect:target=0.5"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep(ctx, []string{"-strategy", "bogus", "-no-cache"}); err == nil {
		t.Fatal("unknown -strategy must fail")
	}
	if err := cmdSweep(ctx, []string{"-sizes", "abc", "-no-cache"}); err == nil {
		t.Fatal("bad sizes must fail")
	}
	if err := cmdSweep(ctx, []string{"-method", "bogus", "-no-cache"}); err == nil {
		t.Fatal("bad method must fail")
	}
	if err := cmdPingpong(ctx, []string{"-systems", "ideal", "-reps", "3", "-no-cache"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMethods(); err != nil {
		t.Fatal(err)
	}
}

// TestRunSpecFile drives `run -spec <file.json>`: the CLI executes the
// same versioned document the serve API accepts.
func TestRunSpecFile(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sp := comb.RunSpec{
		Method: comb.MethodPWW,
		System: "ideal",
		PWW:    &comb.PWWConfig{WorkInterval: 1_000_000, Reps: 3},
	}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun(ctx, []string{"-spec", path, "-obs-dir", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, obs.ManifestFile)); err != nil {
		t.Fatalf("spec-file run must write artifacts: %v", err)
	}

	// The -spec argument also accepts an inline JSON document — the form
	// selfcheck replay lines quote, no temp file needed.
	if err := cmdRun(ctx, []string{"-spec", string(b), "-obs-dir", ""}); err != nil {
		t.Fatalf("inline spec document: %v", err)
	}

	// A -strategy stamp lands in the provenance manifest and survives the
	// replay round trip (manifest → spec → identical result hash).
	sdir := t.TempDir()
	if err := cmdRun(ctx, []string{"-method", "pww", "-system", "ideal", "-reps", "3",
		"-strategy", "bisect:target=0.5", "-obs-dir", sdir}); err != nil {
		t.Fatal(err)
	}
	mf, err := obs.LoadManifest(filepath.Join(sdir, obs.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	want, err := comb.ParseStrategy("bisect:target=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if mf.Strategy != want.String() {
		t.Fatalf("manifest strategy = %q, want %q", mf.Strategy, want.String())
	}
	if err := cmdReplay(ctx, []string{"-manifest", filepath.Join(sdir, obs.ManifestFile)}); err != nil {
		t.Fatalf("strategy-stamped manifest must replay: %v", err)
	}

	// A document with the wrong schema version is refused with the typed
	// error's message, not silently run.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"specVersion":99,"method":"pww"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdRun(ctx, []string{"-spec", bad, "-obs-dir", ""})
	if err == nil || !strings.Contains(err.Error(), "specVersion") {
		t.Fatalf("wrong-version spec error = %v", err)
	}
}

func TestRunMethodDispatch(t *testing.T) {
	// `run -method <name>` resolves through the registry; every registered
	// method with flags is drivable, and unknown names fail loudly.
	ctx := context.Background()
	if err := cmdRun(ctx, []string{"-method", "pingpong", "-system", "ideal",
		"-reps", "2", "-obs-dir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun(ctx, []string{"-method", "netperf", "-system", "ideal",
		"-loop", "1000000", "-obs-dir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun(ctx, []string{"-method", "nosuchmethod"}); err == nil {
		t.Fatal("unknown -method must fail")
	}
}

// TestObsLifecycle drives the full observability loop through the CLI:
// run → artifacts on disk → trace export (chrome + text) → metrics →
// replay with hash verification.
func TestObsLifecycle(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	if err := cmdRun(ctx, []string{"-method", "pww", "-system", "ideal", "-reps", "3",
		"-obs-dir", dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{obs.TraceFile, obs.MetricsPromFile, obs.MetricsJSONFile, obs.ManifestFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing artifact: %v", err)
		}
	}

	chromePath := filepath.Join(dir, "chrome.json")
	if err := cmdTrace([]string{"export", "-format=chrome", "-run", dir, "-o", chromePath}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no trace events")
	}
	if err := cmdTrace([]string{"export", "-format=text", "-run", dir, "-o", filepath.Join(dir, "trace.txt")}); err != nil {
		t.Fatal(err)
	}

	if err := cmdMetrics([]string{"-run", dir, "-format", "prom"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMetrics([]string{"-run", dir, "-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMetrics([]string{"-run", dir, "-format", "bogus"}); err == nil {
		t.Fatal("bogus metrics format must fail")
	}

	if err := cmdReplay(ctx, []string{"-manifest", filepath.Join(dir, obs.ManifestFile)}); err != nil {
		t.Fatalf("replay must reproduce the recorded hash: %v", err)
	}

	if err := cmdRun(ctx, nil); err == nil {
		t.Fatal("run without -method or -spec must fail")
	}
	if err := cmdRun(ctx, []string{"-spec", filepath.Join(dir, "nosuch.json")}); err == nil {
		t.Fatal("missing spec file must fail")
	}
	if err := cmdRun(ctx, []string{"-method", "pww", "-spec", "x.json"}); err == nil {
		t.Fatal("-method and -spec together must fail")
	}
	if err := cmdTrace(nil); err == nil {
		t.Fatal("trace without subcommand must fail")
	}
	if err := cmdTrace([]string{"export", "-run", t.TempDir()}); err == nil {
		t.Fatal("trace export without a capture must fail")
	}
}

func TestCacheCommand(t *testing.T) {
	dir := t.TempDir()
	if err := cmdCache([]string{"stat", "-dir", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCache([]string{"clear", "-dir", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCache(nil); err == nil {
		t.Fatal("cache without args must fail")
	}
	if err := cmdCache([]string{"bogus"}); err == nil {
		t.Fatal("unknown cache subcommand must fail")
	}
}
