package sweep

import (
	"fmt"

	"comb/internal/core"
	"comb/internal/runner"
	"comb/internal/stats"
)

// Figure regenerates one of the paper's evaluation figures.
type Figure struct {
	// ID is the figure number: "4" through "17" reproduce the paper's
	// evaluation figures; "18" is the multi-rank collective-overlap
	// extension.
	ID string
	// Title matches the paper's caption.
	Title string
	// Expect describes the shape the paper reports, for EXPERIMENTS.md.
	Expect string
	// Run performs the sweep and shapes the data.
	Run func(opt Options) (*stats.Table, error)
	// Points expands the sweep into its deterministic point list, so
	// Build (or a caller batching several figures) can execute it across
	// the engine's worker pool before Run shapes the cached results.
	Points func(opt Options) []runner.Point
}

// Figures returns every reproducible evaluation figure, in paper order.
func Figures() []Figure {
	return []Figure{
		{
			ID:     "4",
			Title:  "Polling Method: CPU Availability (Portals)",
			Expect: "low plateau while polls are frequent, then a steep climb",
			Run: func(o Options) (*stats.Table, error) {
				return pollingVsInterval(o, []string{"portals"}, o.sizes(), metrics["availability"])
			},
			Points: func(o Options) []runner.Point { return o.pollingPoints([]string{"portals"}, o.sizes()) },
		},
		{
			ID:     "5",
			Title:  "Polling Method: Bandwidth (Portals)",
			Expect: "~50 MB/s plateau, steep decline at large poll intervals",
			Run: func(o Options) (*stats.Table, error) {
				return pollingVsInterval(o, []string{"portals"}, o.sizes(), metrics["bandwidth"])
			},
			Points: func(o Options) []runner.Point { return o.pollingPoints([]string{"portals"}, o.sizes()) },
		},
		{
			ID:     "6",
			Title:  "PWW Method: CPU Availability (Portals)",
			Expect: "no initial plateau; availability rises with the work interval",
			Run: func(o Options) (*stats.Table, error) {
				return pwwVsInterval(o, []string{"portals"}, o.sizes(), false, metrics["availability"])
			},
			Points: func(o Options) []runner.Point { return o.pwwPoints([]string{"portals"}, o.sizes(), false) },
		},
		{
			ID:     "7",
			Title:  "PWW Method: Bandwidth (Portals)",
			Expect: "more gradual bandwidth decline than the polling method",
			Run: func(o Options) (*stats.Table, error) {
				return pwwVsInterval(o, []string{"portals"}, o.sizes(), false, metrics["bandwidth"])
			},
			Points: func(o Options) []runner.Point { return o.pwwPoints([]string{"portals"}, o.sizes(), false) },
		},
		{
			ID:     "8",
			Title:  "Polling Method: Bandwidth for GM and Portals",
			Expect: "GM ~88 MB/s, Portals ~50 MB/s on identical hardware",
			Run: func(o Options) (*stats.Table, error) {
				return pollingVsInterval(o, []string{"gm", "portals"}, []int{100_000}, metrics["bandwidth"])
			},
			Points: func(o Options) []runner.Point {
				return o.pollingPoints([]string{"gm", "portals"}, []int{100_000})
			},
		},
		{
			ID:     "9",
			Title:  "PWW Method: Bandwidth for GM and Portals",
			Expect: "GM significantly better than Portals at small work intervals",
			Run: func(o Options) (*stats.Table, error) {
				return pwwVsInterval(o, []string{"gm", "portals"}, []int{100_000}, false, metrics["bandwidth"])
			},
			Points: func(o Options) []runner.Point {
				return o.pwwPoints([]string{"gm", "portals"}, []int{100_000}, false)
			},
		},
		{
			ID:     "10",
			Title:  "PWW Method: Average Post Time (100 KB)",
			Expect: "Portals posts cost far more than GM's user-level posts",
			Run: func(o Options) (*stats.Table, error) {
				return pwwVsInterval(o, []string{"portals", "gm"}, []int{100_000}, false, metrics["postrecv"])
			},
			Points: func(o Options) []runner.Point {
				return o.pwwPoints([]string{"portals", "gm"}, []int{100_000}, false)
			},
		},
		{
			ID:     "11",
			Title:  "PWW Method: Average Wait Time (100 KB)",
			Expect: "with enough work, Portals completes messaging (wait -> 0) while GM does not",
			Run: func(o Options) (*stats.Table, error) {
				return pwwVsInterval(o, []string{"gm", "portals"}, []int{100_000}, false, metrics["wait"])
			},
			Points: func(o Options) []runner.Point {
				return o.pwwPoints([]string{"gm", "portals"}, []int{100_000}, false)
			},
		},
		{
			ID:     "12",
			Title:  "PWW Method: CPU Overhead for Portals",
			Expect: "work with message handling takes longer than work alone (interrupt overhead)",
			Run:    func(o Options) (*stats.Table, error) { return workOverhead(o, "portals") },
			Points: func(o Options) []runner.Point {
				return o.pwwPoints([]string{"portals"}, []int{100_000}, false)
			},
		},
		{
			ID:     "13",
			Title:  "PWW Method: CPU Overhead for GM",
			Expect: "no gap: work takes the same time with and without messaging",
			Run:    func(o Options) (*stats.Table, error) { return workOverhead(o, "gm") },
			Points: func(o Options) []runner.Point {
				return o.pwwPoints([]string{"gm"}, []int{100_000}, false)
			},
		},
		{
			ID:     "14",
			Title:  "Polling Method: Bandwidth Versus CPU Availability for GM",
			Expect: "max bandwidth at ~full availability, except the 10 KB eager curve",
			Run:    func(o Options) (*stats.Table, error) { return bwVsAvail(o, "gm", o.sizes()) },
			Points: func(o Options) []runner.Point { return o.pollingPoints([]string{"gm"}, o.sizes()) },
		},
		{
			ID:     "15",
			Title:  "Polling Method: Bandwidth Versus CPU Availability for Portals",
			Expect: "max bandwidth restricted to the low range of CPU availability",
			Run:    func(o Options) (*stats.Table, error) { return bwVsAvail(o, "portals", o.sizes()) },
			Points: func(o Options) []runner.Point { return o.pollingPoints([]string{"portals"}, o.sizes()) },
		},
		{
			ID:     "16",
			Title:  "Polling and PWW Method: Bandwidth for GM",
			Expect: "polling sustains peak bandwidth to higher availability than PWW",
			Run:    func(o Options) (*stats.Table, error) { return methodsVsAvail(o, "gm", false) },
			Points: func(o Options) []runner.Point {
				return append(o.pollingPoints([]string{"gm"}, []int{100_000}),
					o.pwwPoints([]string{"gm"}, []int{100_000}, false)...)
			},
		},
		{
			ID:     "17",
			Title:  "Polling and Modified PWW Method: Bandwidth for GM",
			Expect: "one MPI_Test in the work phase extends PWW bandwidth to higher availability",
			Run:    func(o Options) (*stats.Table, error) { return methodsVsAvail(o, "gm", true) },
			Points: func(o Options) []runner.Point {
				pts := o.pollingPoints([]string{"gm"}, []int{100_000})
				pts = append(pts, o.pwwPoints([]string{"gm"}, []int{100_000}, true)...)
				return append(pts, o.pwwPoints([]string{"gm"}, []int{100_000}, false)...)
			},
		},
		{
			ID:     "18",
			Title:  "Collective Overlap: Overlapable Work Fraction (8 nodes)",
			Expect: "offloaded transports hide most work behind bcast; host-progressed gm hides none",
			Run:    collovOverlap,
			Points: func(o Options) []runner.Point { return o.collovPoints() },
		},
	}
}

// pollingPoints expands a polling sweep (systems × sizes × poll axis)
// into its point list.
func (o Options) pollingPoints(systems []string, sizes []int) []runner.Point {
	var pts []runner.Point
	for _, sys := range systems {
		for _, size := range sizes {
			for _, poll := range o.pollAxis() {
				pts = append(pts, pollingPointSpec(sys, size, poll))
			}
		}
	}
	return pts
}

// pwwPoints expands a PWW sweep (systems × sizes × work axis).
func (o Options) pwwPoints(systems []string, sizes []int, testInWork bool) []runner.Point {
	var pts []runner.Point
	for _, sys := range systems {
		for _, size := range sizes {
			for _, work := range o.workAxis() {
				pts = append(pts, pwwPointSpec(sys, size, work, o.reps(), testInWork))
			}
		}
	}
	return pts
}

// Build executes the figure's sweep and returns its table, titled like
// the paper's caption.  Under the grid strategy the point list is warmed
// through the engine's worker pool first; the shaping pass then runs
// serially over cache hits, so the table is identical whatever the
// worker count.  Search strategies skip the dense prewarm — spending
// engine runs only where the search probes is their whole point.
func (f Figure) Build(opt Options) (*stats.Table, error) {
	if f.Points != nil && opt.Strategy.IsGrid() {
		if err := opt.engine().RunAll(opt.ctx(), f.Points(opt)); err != nil {
			return nil, err
		}
	}
	t, err := f.Run(opt)
	if err != nil {
		return nil, err
	}
	t.Title = fmt.Sprintf("Figure %s: %s", f.ID, f.Title)
	return t, nil
}

// ByID looks a figure up by its paper number.
func ByID(id string) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("sweep: unknown figure %q (have 4-18)", id)
}

// metric is a named y value: its axis label and its selector on each
// method's result, nil where the method does not measure it.
type metric struct {
	label string
	poll  func(*core.PollingResult) float64
	pww   func(*core.PWWResult) float64
}

// metrics are the y values the interval figures plot, by the names a
// custom sweep selects them with.
var metrics = map[string]metric{
	"bandwidth": {"Bandwidth (MB/s)",
		func(r *core.PollingResult) float64 { return r.BandwidthMBs },
		func(r *core.PWWResult) float64 { return r.BandwidthMBs }},
	"availability": {"CPU Availability (fraction to user)",
		func(r *core.PollingResult) float64 { return r.Availability },
		func(r *core.PWWResult) float64 { return r.Availability }},
	"wait": {"Time Per Message (us)", nil,
		func(r *core.PWWResult) float64 { return r.AvgWait.Seconds() * 1e6 }},
	"overhead": {"Work Overhead (%)", nil,
		func(r *core.PWWResult) float64 { return r.WorkOverhead * 100 }},
	"postrecv": {"Time to Post (us)", nil,
		func(r *core.PWWResult) float64 { return r.AvgPostRecv.Seconds() * 1e6 }},
}

// The interval figures' x-axis labels.
const (
	pollXLabel = "Poll Interval (loop iterations)"
	workXLabel = "Work Interval (loop iterations)"
)

// seriesName labels a (system, size) curve like the paper's legends.
func seriesName(system string, size int, multiSystem, multiSize bool) string {
	switch {
	case multiSystem && multiSize:
		return fmt.Sprintf("%s %s", system, sizeLabel(size))
	case multiSystem:
		return system
	default:
		return sizeLabel(size)
	}
}

// pollingCurve is one polling-sweep series as a searchable curve: the
// axis is the poll interval; coord extracts the plotted (x, y) pair
// from one measurement.
func pollingCurve(o Options, name, system string, size int, coord func(poll int64, r *core.PollingResult) (px, py float64)) Curve {
	return Curve{
		Name: name,
		Axis: o.pollAxis(),
		Eval: func(poll int64, rep int) (float64, float64, error) {
			r, err := pollingPointAt(o, system, size, poll, rep)
			if err != nil {
				return 0, 0, err
			}
			x, y := coord(poll, r)
			return x, y, nil
		},
	}
}

// pwwCurve is one PWW-sweep series as a searchable curve over the work
// axis.
func pwwCurve(o Options, name, system string, size int, testInWork bool, coord func(work int64, r *core.PWWResult) (px, py float64)) Curve {
	return Curve{
		Name: name,
		Axis: o.workAxis(),
		Eval: func(work int64, rep int) (float64, float64, error) {
			r, err := pwwPointAt(o, system, size, work, o.reps(), testInWork, rep)
			if err != nil {
				return 0, 0, err
			}
			x, y := coord(work, r)
			return x, y, nil
		},
	}
}

// pollingVsInterval builds a figure with poll interval on x.
func pollingVsInterval(o Options, systems []string, sizes []int, y metric) (*stats.Table, error) {
	t := &stats.Table{
		XLabel: pollXLabel,
		YLabel: y.label,
		LogX:   true,
	}
	for _, sys := range systems {
		for _, size := range sizes {
			name := seriesName(sys, size, len(systems) > 1, len(sizes) > 1)
			s, err := RunCurve(o, pollingCurve(o, name, sys, size,
				func(poll int64, r *core.PollingResult) (float64, float64) {
					return float64(poll), y.poll(r)
				}))
			if err != nil {
				return nil, err
			}
			t.Series = append(t.Series, s)
		}
	}
	return t, nil
}

// pwwVsInterval builds a figure with work interval on x.
func pwwVsInterval(o Options, systems []string, sizes []int, testInWork bool, y metric) (*stats.Table, error) {
	t := &stats.Table{
		XLabel: workXLabel,
		YLabel: y.label,
		LogX:   true,
	}
	for _, sys := range systems {
		for _, size := range sizes {
			name := seriesName(sys, size, len(systems) > 1, len(sizes) > 1)
			s, err := RunCurve(o, pwwCurve(o, name, sys, size, testInWork,
				func(work int64, r *core.PWWResult) (float64, float64) {
					return float64(work), y.pww(r)
				}))
			if err != nil {
				return nil, err
			}
			t.Series = append(t.Series, s)
		}
	}
	return t, nil
}

// workOverhead builds Figures 12/13: work-phase duration with and without
// message handling.
func workOverhead(o Options, system string) (*stats.Table, error) {
	t := &stats.Table{
		XLabel: workXLabel,
		YLabel: "Average Time Per Work Phase (us)",
		LogX:   true,
	}
	// Two series off the same sweep points: each runs as its own curve,
	// sharing every measurement through the engine cache.
	with, err := RunCurve(o, pwwCurve(o, "Work with MH", system, 100_000, false,
		func(work int64, r *core.PWWResult) (float64, float64) {
			return float64(work), r.AvgWorkMH.Seconds() * 1e6
		}))
	if err != nil {
		return nil, err
	}
	only, err := RunCurve(o, pwwCurve(o, "Work Only", system, 100_000, false,
		func(work int64, r *core.PWWResult) (float64, float64) {
			return float64(work), r.AvgWorkOnly.Seconds() * 1e6
		}))
	if err != nil {
		return nil, err
	}
	t.Series = append(t.Series, with, only)
	return t, nil
}

// bwVsAvail builds Figures 14/15: the polling sweep re-plotted as
// bandwidth against availability.
func bwVsAvail(o Options, system string, sizes []int) (*stats.Table, error) {
	t := &stats.Table{
		XLabel: "CPU Available to User (fraction of time)",
		YLabel: "Bandwidth (MB/s)",
	}
	for _, size := range sizes {
		s, err := RunCurve(o, pollingCurve(o, sizeLabel(size), system, size,
			func(_ int64, r *core.PollingResult) (float64, float64) {
				return r.Availability, r.BandwidthMBs
			}))
		if err != nil {
			return nil, err
		}
		s.SortByX()
		t.Series = append(t.Series, s)
	}
	return t, nil
}

// methodsVsAvail builds Figures 16/17: both methods (and optionally the
// PWW+MPI_Test variant) as bandwidth against availability for one system.
func methodsVsAvail(o Options, system string, includeTestVariant bool) (*stats.Table, error) {
	t := &stats.Table{
		XLabel: "CPU Available to User (fraction of time)",
		YLabel: "Bandwidth (MB/s)",
	}
	poll, err := RunCurve(o, pollingCurve(o, "Poll", system, 100_000,
		func(_ int64, r *core.PollingResult) (float64, float64) {
			return r.Availability, r.BandwidthMBs
		}))
	if err != nil {
		return nil, err
	}
	poll.SortByX()

	pwwSeries := func(testInWork bool, name string) (stats.Series, error) {
		s, err := RunCurve(o, pwwCurve(o, name, system, 100_000, testInWork,
			func(_ int64, r *core.PWWResult) (float64, float64) {
				return r.Availability, r.BandwidthMBs
			}))
		if err != nil {
			return stats.Series{}, err
		}
		s.SortByX()
		return s, nil
	}

	t.Series = append(t.Series, poll)
	if includeTestVariant {
		s, err := pwwSeries(true, "PWW + Test")
		if err != nil {
			return nil, err
		}
		t.Series = append(t.Series, s)
	}
	plain, err := pwwSeries(false, "PWW")
	if err != nil {
		return nil, err
	}
	t.Series = append(t.Series, plain)
	return t, nil
}
