package sweep

import (
	"fmt"

	"comb/internal/core"
	"comb/internal/runner"
	"comb/internal/stats"
)

// Custom is a sweep no figure fixes: one method's metric against its
// interval axis (From to To loop iterations, Points per decade) for any
// systems, message sizes and cluster size (Nodes 0 is the paper's two).
// Its samples are the figures' own points, so where the two overlap a
// custom sweep and a figure share cache entries.
type Custom struct {
	Method   string // polling or pww
	Metric   string // bandwidth or availability; for pww also wait, overhead or postrecv
	Systems  []string
	Sizes    []int
	Nodes    int
	From, To int64
	Points   int
}

// check validates the sweep and returns the selector of its y value.
func (c Custom) check() (metric, error) {
	m, ok := metrics[c.Metric]
	switch {
	case c.Method != "polling" && c.Method != "pww":
		return m, fmt.Errorf("sweep: unknown method %q (polling|pww)", c.Method)
	case !ok && c.Method == "pww":
		return m, fmt.Errorf("sweep: unknown metric %q (bandwidth|availability|wait|overhead|postrecv)", c.Metric)
	case !ok || c.Method == "polling" && m.poll == nil:
		return m, fmt.Errorf("sweep: metric %q not available for polling (bandwidth|availability)", c.Metric)
	case c.From < 1 || c.To < c.From:
		return m, fmt.Errorf("sweep: bad axis from %d to %d (need 1 <= from <= to)", c.From, c.To)
	case c.Points < 1:
		return m, fmt.Errorf("sweep: %d points per decade (need at least 1)", c.Points)
	}
	return m, nil
}

// point is repetition rep of the sample at x: the figures' point for
// it, on the sweep's cluster size.
func (c Custom) point(o Options, system string, size int, x int64, rep int) runner.Point {
	p := pollingPointRep(system, size, x, rep)
	if c.Method == "pww" {
		p = pwwPointRep(system, size, x, o.reps(), false, rep)
	}
	p.Nodes = c.Nodes
	return p
}

// points lists the sweep's grid samples, for the parallel prewarm.
func (c Custom) points(o Options) []runner.Point {
	var pts []runner.Point
	for _, sys := range c.Systems {
		for _, size := range c.Sizes {
			for _, x := range stats.LogSpaceInt(c.From, c.To, c.Points) {
				pts = append(pts, c.point(o, sys, size, x, 0))
			}
		}
	}
	return pts
}

// Build runs the sweep and returns its table, one series per system and
// message size.  Like Figure.Build it warms the grid through the
// engine's worker pool first, unless a search strategy picks the points.
func (c Custom) Build(o Options) (*stats.Table, error) {
	m, err := c.check()
	if err != nil {
		return nil, err
	}
	if o.Strategy.IsGrid() {
		if err := o.engine().RunAll(o.ctx(), c.points(o)); err != nil {
			return nil, err
		}
	}
	t := &stats.Table{Title: fmt.Sprintf("custom sweep: %s %s", c.Method, c.Metric),
		XLabel: pollXLabel, YLabel: c.Metric, LogX: true}
	if c.Method == "pww" {
		t.XLabel = workXLabel
	}
	for _, sys := range c.Systems {
		for _, size := range c.Sizes {
			name := sys
			if len(c.Sizes) > 1 {
				name = fmt.Sprintf("%s %dB", sys, size)
			}
			s, err := RunCurve(o, Curve{Name: name, Axis: stats.LogSpaceInt(c.From, c.To, c.Points),
				Eval: func(x int64, rep int) (float64, float64, error) {
					p := c.point(o, sys, size, x, rep)
					if c.Method == "pww" {
						r, err := runner.RunAs[*core.PWWResult](o.ctx(), o.engine(), p)
						if err != nil {
							return 0, 0, err
						}
						return float64(x), m.pww(r), nil
					}
					r, err := runner.RunAs[*core.PollingResult](o.ctx(), o.engine(), p)
					if err != nil {
						return 0, 0, err
					}
					return float64(x), m.poll(r), nil
				}})
			if err != nil {
				return nil, err
			}
			t.Series = append(t.Series, s)
		}
	}
	return t, nil
}
