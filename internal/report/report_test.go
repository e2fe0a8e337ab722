package report

import (
	"context"
	"errors"
	"strings"
	"testing"

	"comb/internal/stats"
	"comb/internal/sweep"
)

func TestWriteQuickReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation skipped in -short mode")
	}
	var b strings.Builder
	if err := Write(&b, Options{Quick: true, MaxRowsPerFigure: 5}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# COMB reproduction report",
		"## Systems under test",
		"### Figure 4:",
		"### Figure 17:",
		"## Related-work comparisons",
		"| gm |",
		"| portals |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 4000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

func TestWriteHonoursCancelledContext(t *testing.T) {
	// Every section runs under the report's context: a cancelled one
	// fails the report before any point is simulated.
	sweep.ClearCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := sweep.DefaultEngine.Stats().Runs
	var b strings.Builder
	err := Write(&b, Options{Quick: true, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Write under a cancelled context = %v, want context.Canceled", err)
	}
	if ran := sweep.DefaultEngine.Stats().Runs - before; ran != 0 {
		t.Errorf("cancelled Write simulated %d points", ran)
	}
}

func TestWriteTableTruncation(t *testing.T) {
	tbl := &stats.Table{
		XLabel: "x", YLabel: "y",
		Series: []stats.Series{{Name: "s"}},
	}
	for i := 0; i < 20; i++ {
		tbl.Series[0].Add(float64(i), float64(i*i))
	}
	var b strings.Builder
	writeTable(&b, tbl, 5)
	out := b.String()
	rows := strings.Count(out, "\n| ")
	if rows != 5 {
		t.Fatalf("truncated table has %d data rows, want 5:\n%s", rows, out)
	}
	// Endpoints preserved.
	if !strings.Contains(out, "| 0 |") || !strings.Contains(out, "| 19 |") {
		t.Fatalf("endpoints missing:\n%s", out)
	}
}

func TestSortFloats(t *testing.T) {
	v := []float64{3, 1, 2, -5}
	sortFloats(v)
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			t.Fatalf("not sorted: %v", v)
		}
	}
}
