package sweep

import (
	"slices"
	"testing"

	"comb/internal/runner"
)

// customAt builds a one-sample custom sweep of meth's metric on eng and
// returns the sample's y value.
func customAt(eng *runner.Engine, meth, metric, sys string) (float64, error) {
	c := Custom{Method: meth, Metric: metric, Systems: []string{sys}, Sizes: []int{100_000},
		From: 1_000_000, To: 1_000_000, Points: 1}
	tbl, err := c.Build(Options{Engine: eng})
	if err != nil {
		return 0, err
	}
	return tbl.Series[0].Points[0].Y, nil
}

func TestSweepPointMetrics(t *testing.T) {
	eng := runner.New(runner.Config{})
	for _, metric := range []string{"bandwidth", "availability"} {
		v, err := customAt(eng, "polling", metric, "gm")
		if err != nil {
			t.Fatalf("polling %s: %v", metric, err)
		}
		if v <= 0 {
			t.Errorf("polling %s = %v", metric, v)
		}
	}
	for _, metric := range []string{"bandwidth", "availability", "wait", "overhead", "postrecv"} {
		v, err := customAt(eng, "pww", metric, "portals")
		if err != nil {
			t.Fatalf("pww %s: %v", metric, err)
		}
		if v < 0 {
			t.Errorf("pww %s = %v", metric, v)
		}
	}
}

func TestSweepPointErrors(t *testing.T) {
	eng := runner.New(runner.Config{})
	if _, err := customAt(eng, "polling", "wait", "gm"); err == nil {
		t.Error("polling has no wait metric")
	}
	if _, err := customAt(eng, "pww", "nosuch", "gm"); err == nil {
		t.Error("unknown metric must fail")
	}
	if _, err := customAt(eng, "nosuch", "bandwidth", "gm"); err == nil {
		t.Error("unknown method must fail")
	}
	if _, err := customAt(eng, "polling", "bandwidth", "nosuch"); err == nil {
		t.Error("unknown system must fail")
	}
	// A bad axis is an error before any run, never a panic in the axis
	// builder.
	for _, ax := range []struct {
		from, to int64
		points   int
	}{{1000, 100_000, 0}, {1000, 100_000, -1}, {0, 100_000, 2}, {1000, 10, 2}} {
		c := Custom{Method: "polling", Metric: "bandwidth", Systems: []string{"gm"}, Sizes: []int{100_000},
			From: ax.from, To: ax.to, Points: ax.points}
		if _, err := c.Build(Options{Engine: eng}); err == nil {
			t.Errorf("axis from %d to %d at %d points per decade must fail", ax.from, ax.to, ax.points)
		}
	}
	if st := eng.Stats(); st.Runs != 0 {
		t.Errorf("rejected sweeps ran %d points", st.Runs)
	}
}

// TestCustomPointsShareFigureKeys: a custom sweep over a figure's
// systems, size and axis asks for exactly the figure's points, so
// `comb sweep` and `comb figure` share cache entries.
func TestCustomPointsShareFigureKeys(t *testing.T) {
	keys := func(pts []runner.Point) []string {
		var ks []string
		for _, p := range pts {
			ks = append(ks, p.Key())
		}
		return ks
	}
	for _, tc := range []struct {
		fig    string
		custom Custom
	}{
		{"8", Custom{Method: "polling", From: 10, To: 100_000_000, Points: 2}},
		{"9", Custom{Method: "pww", From: 1_000, To: 100_000_000, Points: 2}},
	} {
		f, err := ByID(tc.fig)
		if err != nil {
			t.Fatal(err)
		}
		c := tc.custom
		c.Systems, c.Sizes = []string{"gm", "portals"}, []int{100_000}
		got, want := keys(c.points(Options{})), keys(f.Points(Options{}))
		if !slices.Equal(got, want) {
			t.Errorf("figure %s: custom %s sweep keys\n%v\nwant\n%v", tc.fig, c.Method, got, want)
		}
	}
}
