package sweep

import (
	"comb/internal/method/collov"
	"comb/internal/runner"
	"comb/internal/stats"
)

// Figure 18 is the multi-rank extension of the paper's overlap story:
// the collov method's max-work-injection measurement, run on an 8-node
// communicator, plotted as the fraction of the collective's time the
// host can spend computing without slowing the collective down.  The
// importing of the collov package also registers the method, so the
// figure's points resolve by name like every other sweep point.

// Canonical Figure 18 point parameters.  They are part of the figure's
// cache keys and golden CSV, so they do not vary with Quick; only the
// size axis shrinks.
const (
	collovNodes = 8
	collovReps  = 2
	collovGrid  = 16
)

// collovSeries are the figure's curves: a host-progressed transport
// against an offloaded one, for both collectives.
var collovSeries = []struct{ system, collective string }{
	{"gm", "allreduce"},
	{"gm", "bcast"},
	{"ideal", "allreduce"},
	{"ideal", "bcast"},
}

// collovSizes returns Figure 18's collective payload axis.
func (o Options) collovSizes() []int64 {
	if o.Quick {
		return []int64{16_384}
	}
	return []int64{4_096, 16_384, 65_536}
}

// collovPointSpec is the canonical point for one Figure 18 sample.
func collovPointSpec(system, collective string, size int, rep int) runner.Point {
	return runner.Point{
		Method: "collov",
		System: system,
		Nodes:  collovNodes,
		Seed:   RepSeed(0, rep),
		Params: collov.Params{
			Collective: collective,
			MsgSize:    size,
			Reps:       collovReps,
			WorkGrid:   collovGrid,
			Search:     collov.SearchBisect,
		},
	}
}

// collovPoints expands Figure 18 (series × size axis) into its point
// list for the dense prewarm.
func (o Options) collovPoints() []runner.Point {
	var pts []runner.Point
	for _, sc := range collovSeries {
		for _, size := range o.collovSizes() {
			pts = append(pts, collovPointSpec(sc.system, sc.collective, int(size), 0))
		}
	}
	return pts
}

// collovPointAt runs (or recalls) repetition rep of one collov sample
// on the Options engine.
func collovPointAt(o Options, system, collective string, size, rep int) (*collov.Result, error) {
	return runner.RunAs[*collov.Result](o.ctx(), o.engine(), collovPointSpec(system, collective, size, rep))
}

// collovCurve is one Figure 18 series as a searchable curve over the
// message-size axis.
func collovCurve(o Options, name, system, collective string) Curve {
	return Curve{
		Name: name,
		Axis: o.collovSizes(),
		Eval: func(size int64, rep int) (float64, float64, error) {
			r, err := collovPointAt(o, system, collective, int(size), rep)
			if err != nil {
				return 0, 0, err
			}
			return float64(size), r.OverlapFraction, nil
		},
	}
}

// collovOverlap builds Figure 18: overlappable work fraction against
// collective payload size on the 8-node communicator.
func collovOverlap(o Options) (*stats.Table, error) {
	t := &stats.Table{
		XLabel: "Message Size (bytes)",
		YLabel: "Overlapable Work (fraction of collective time)",
		LogX:   true,
	}
	for _, sc := range collovSeries {
		s, err := RunCurve(o, collovCurve(o, sc.system+" "+sc.collective, sc.system, sc.collective))
		if err != nil {
			return nil, err
		}
		t.Series = append(t.Series, s)
	}
	return t, nil
}
