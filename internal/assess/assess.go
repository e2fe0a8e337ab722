package assess

import (
	"context"
	"fmt"
	"strings"
	"time"

	"comb/internal/core"
	"comb/internal/runner"
	"comb/internal/sweep"
)

// Report is the full COMB characterization of one system.
type Report struct {
	System string

	// Peak polling-method bandwidth (MB/s) and the CPU availability
	// measured at that operating point.
	PeakBandwidth      float64
	AvailabilityAtPeak float64

	// BestAvailability is the availability once polls are rare enough to
	// stop the message flow (the right end of Figure 4).
	BestAvailability float64

	// Application offload (paper §4.1): does messaging complete during a
	// long no-MPI-call work phase?
	Offload   bool
	LongWait  time.Duration // PWW wait per message at a long work interval
	ShortWait time.Duration // ... at a short work interval

	// Host overhead (paper §4.2): work-phase dilation while messaging.
	WorkOverhead float64

	// Progress rule (paper §4.3): bandwidth gain from one MPI_Test planted
	// in the work phase.  A large gain means progress lives inside the
	// library, violating the MPI progress rule.
	TestGain float64

	// Small-message behaviour (the Figure 14 eager signature): the
	// availability gap between small and large messages at full bandwidth.
	SmallMsgAvailability float64
	LargeMsgAvailability float64
}

// Classification buckets derived from the measurements.
const (
	sizeSmall = 10_000
	sizeLarge = 100_000

	pollAtPeak   = 10_000
	pollAtIdle   = 100_000_000
	workShort    = 100_000
	workLong     = 20_000_000
	progressWork = 5_000_000 // work interval for the §4.3 MPI_Test probe
	assessReps   = 10
	assessWorkT  = 25_000_000
)

// battery is the fixed measurement plan Run executes: seven points that
// together answer the paper's §4 questions.
func battery(system string) []runner.Point {
	poll := func(size int, interval, workTotal int64) runner.Point {
		return runner.Point{Method: "polling", System: system, Params: core.PollingConfig{
			Config:       core.Config{MsgSize: size},
			PollInterval: interval,
			WorkTotal:    workTotal,
		}}
	}
	pww := func(work int64, testInWork bool) runner.Point {
		return runner.Point{Method: "pww", System: system, Params: core.PWWConfig{
			Config:       core.Config{MsgSize: sizeLarge},
			WorkInterval: work,
			Reps:         assessReps,
			TestInWork:   testInWork,
		}}
	}
	return []runner.Point{
		poll(sizeLarge, pollAtPeak, assessWorkT),   // peak operating point
		poll(sizeLarge, pollAtIdle, 10*pollAtIdle), // idle availability
		poll(sizeSmall, pollAtPeak, assessWorkT),   // eager-size signature
		pww(workLong, false),                       // offload probe
		pww(workShort, false),                      // short-work wait baseline
		pww(progressWork, true),                    // §4.3 MPI_Test probe
		pww(progressWork, false),                   // ... and its control
	}
}

// Run characterizes the named system on the sweep package's default
// engine.
func Run(system string) (*Report, error) {
	return RunContext(context.Background(), sweep.DefaultEngine, system)
}

// RunContext characterizes the named system: the COMB battery executes
// across eng's worker pool (and cache tiers), then the report is read off
// the cached points.
func RunContext(ctx context.Context, eng *runner.Engine, system string) (*Report, error) {
	pts := battery(system)
	if err := eng.RunAll(ctx, pts); err != nil {
		return nil, err
	}
	getPoll := func(i int) (*core.PollingResult, error) {
		return runner.RunAs[*core.PollingResult](ctx, eng, pts[i])
	}
	getPWW := func(i int) (*core.PWWResult, error) {
		return runner.RunAs[*core.PWWResult](ctx, eng, pts[i])
	}

	r := &Report{System: system}
	peak, err := getPoll(0)
	if err != nil {
		return nil, err
	}
	r.PeakBandwidth = peak.BandwidthMBs
	r.AvailabilityAtPeak = peak.Availability
	r.LargeMsgAvailability = peak.Availability

	idle, err := getPoll(1)
	if err != nil {
		return nil, err
	}
	r.BestAvailability = idle.Availability

	small, err := getPoll(2)
	if err != nil {
		return nil, err
	}
	r.SmallMsgAvailability = small.Availability

	long, err := getPWW(3)
	if err != nil {
		return nil, err
	}
	short, err := getPWW(4)
	if err != nil {
		return nil, err
	}
	r.LongWait = long.AvgWait
	r.ShortWait = short.AvgWait
	r.Offload = long.AvgWait < long.AvgWorkOnly/100
	r.WorkOverhead = long.WorkOverhead

	tiw, err := getPWW(5)
	if err != nil {
		return nil, err
	}
	plain, err := getPWW(6)
	if err != nil {
		return nil, err
	}
	if plain.BandwidthMBs > 0 {
		r.TestGain = tiw.BandwidthMBs/plain.BandwidthMBs - 1
	}
	return r, nil
}

// Verdicts renders the paper-style conclusions.
func (r *Report) Verdicts() []string {
	var v []string
	if r.Offload {
		v = append(v, "provides application offload: communication completes with no MPI calls (paper Fig 11)")
	} else {
		v = append(v, "NO application offload: messages wait for library calls (paper Fig 11)")
	}
	switch {
	case r.WorkOverhead > 0.05:
		v = append(v, fmt.Sprintf("communication overhead: work phases dilate %.0f%% under messaging (paper Fig 12)", r.WorkOverhead*100))
	default:
		v = append(v, "no measurable communication overhead in the work phase (paper Fig 13)")
	}
	if r.TestGain > 0.05 {
		v = append(v, fmt.Sprintf("MPI progress-rule violation: one MPI_Test in the work phase buys %.0f%% bandwidth (paper Fig 17)", r.TestGain*100))
	}
	if gap := r.LargeMsgAvailability - r.SmallMsgAvailability; gap > 0.1 {
		v = append(v, fmt.Sprintf("small-message penalty: availability drops %.2f at the eager size (paper Fig 14)", gap))
	}
	if r.AvailabilityAtPeak > 0.8 {
		v = append(v, fmt.Sprintf("overlap-friendly: sustains %.0f MB/s while leaving %.0f%% of the CPU to the application", r.PeakBandwidth, r.AvailabilityAtPeak*100))
	} else if r.AvailabilityAtPeak < 0.3 {
		v = append(v, fmt.Sprintf("peak bandwidth (%.0f MB/s) is only reachable at low CPU availability (%.2f) (paper Fig 15)", r.PeakBandwidth, r.AvailabilityAtPeak))
	}
	return v
}

// String renders the report for the terminal.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "COMB assessment: %s\n", r.System)
	fmt.Fprintf(&b, "  peak bandwidth        %8.2f MB/s (polling method, 100 KB)\n", r.PeakBandwidth)
	fmt.Fprintf(&b, "  availability at peak  %8.3f\n", r.AvailabilityAtPeak)
	fmt.Fprintf(&b, "  availability at idle  %8.3f\n", r.BestAvailability)
	fmt.Fprintf(&b, "  PWW wait (short work) %8s /msg\n", r.ShortWait.Round(time.Microsecond))
	fmt.Fprintf(&b, "  PWW wait (long work)  %8s /msg\n", r.LongWait.Round(time.Microsecond))
	fmt.Fprintf(&b, "  work-phase overhead   %7.1f%%\n", r.WorkOverhead*100)
	fmt.Fprintf(&b, "  MPI_Test gain         %7.1f%%\n", r.TestGain*100)
	fmt.Fprintf(&b, "  avail small/large msg %8.3f / %.3f\n", r.SmallMsgAvailability, r.LargeMsgAvailability)
	for _, v := range r.Verdicts() {
		fmt.Fprintf(&b, "  * %s\n", v)
	}
	return b.String()
}
