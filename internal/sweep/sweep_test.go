package sweep

import (
	"strings"
	"testing"
)

func TestFiguresRegistryComplete(t *testing.T) {
	figs := Figures()
	if len(figs) != 15 {
		t.Fatalf("have %d figures, want 15 (paper Figures 4-17 plus the collective-overlap Figure 18)", len(figs))
	}
	want := 4
	for _, f := range figs {
		if f.ID != itoa(want) {
			t.Errorf("figure ID %q out of order, want %d", f.ID, want)
		}
		if f.Title == "" || f.Expect == "" || f.Run == nil {
			t.Errorf("figure %s incomplete", f.ID)
		}
		want++
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestByID(t *testing.T) {
	f, err := ByID("11")
	if err != nil || f.ID != "11" {
		t.Fatalf("ByID(11) = %+v, %v", f, err)
	}
	if _, err := ByID("3"); err == nil {
		t.Fatal("ByID(3) must fail (method diagram, not a result)")
	}
	if _, err := ByID("99"); err == nil {
		t.Fatal("ByID(99) must fail")
	}
}

func TestWorkTotalForClamps(t *testing.T) {
	if workTotalFor(10) != 25_000_000 {
		t.Errorf("small poll not clamped up: %d", workTotalFor(10))
	}
	if workTotalFor(10_000_000) != 100_000_000 {
		t.Errorf("mid poll wrong: %d", workTotalFor(10_000_000))
	}
	if workTotalFor(1_000_000_000) != 1_500_000_000 {
		t.Errorf("huge poll not clamped down: %d", workTotalFor(1_000_000_000))
	}
}

func TestPollingPointCached(t *testing.T) {
	ClearCache()
	a, err := pollingPointAt(Options{}, "gm", 100_000, 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pollingPointAt(Options{}, "gm", 100_000, 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second call must return the cached pointer")
	}
}

func TestQuickFigureBuilds(t *testing.T) {
	// Build a representative subset end to end in quick mode, checking
	// table shape.  (The full set is exercised by cmd/comb and benches.)
	ClearCache()
	opt := Options{Quick: true}
	for _, id := range []string{"5", "8", "11", "13", "17", "18"} {
		f, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := f.Build(opt)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if !strings.Contains(tbl.Title, "Figure "+id) {
			t.Errorf("figure %s: bad title %q", id, tbl.Title)
		}
		if len(tbl.Series) == 0 {
			t.Fatalf("figure %s: no series", id)
		}
		for _, s := range tbl.Series {
			if len(s.Points) == 0 {
				t.Errorf("figure %s: empty series %q", id, s.Name)
			}
		}
		if tbl.XLabel == "" || tbl.YLabel == "" {
			t.Errorf("figure %s: missing axis labels", id)
		}
		csv := tbl.CSV()
		if !strings.HasPrefix(csv, "series,") {
			t.Errorf("figure %s: bad CSV header", id)
		}
		if strings.Count(csv, "\n") < 2 {
			t.Errorf("figure %s: CSV too short", id)
		}
	}
}

func TestSizeLabel(t *testing.T) {
	if sizeLabel(10_000) != "10 KB" || sizeLabel(300_000) != "300 KB" {
		t.Error("KB labels wrong")
	}
	if sizeLabel(1234) != "1234 B" {
		t.Error("byte label wrong")
	}
}

func TestUnknownSystemPropagatesError(t *testing.T) {
	ClearCache()
	if _, err := pollingPointAt(Options{}, "nosuch", 1000, 1000, 0); err == nil {
		t.Fatal("unknown system must error")
	}
	if _, err := pwwPointAt(Options{}, "nosuch", 1000, 1000, 3, false, 0); err == nil {
		t.Fatal("unknown system must error")
	}
}
