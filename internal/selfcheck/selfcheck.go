package selfcheck

import (
	"context"
	"fmt"
	"strings"

	"comb"
	"comb/internal/assess"
	"comb/internal/method/netperf"
	"comb/internal/runner"
	"comb/internal/sweep"
)

// Check is one verified claim.
type Check struct {
	Name   string
	Claim  string
	Got    string
	Passed bool
}

// Result is a full self-check run.
type Result struct {
	Checks []Check
}

// Passed reports whether every check passed.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Passed {
			return false
		}
	}
	return true
}

// String renders the checklist.
func (r *Result) String() string {
	var b strings.Builder
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Passed {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %-34s %s (got %s)\n", mark, c.Name, c.Claim, c.Got)
	}
	if r.Passed() {
		b.WriteString("all checks passed\n")
	} else {
		b.WriteString("SELF-CHECK FAILED\n")
	}
	return b.String()
}

func (r *Result) add(name, claim, got string, ok bool) {
	r.Checks = append(r.Checks, Check{Name: name, Claim: claim, Got: got, Passed: ok})
}

// Run executes the full checklist.
func Run() (*Result, error) {
	res := &Result{}

	gm, err := assess.Run("gm")
	if err != nil {
		return nil, err
	}
	ptl, err := assess.Run("portals")
	if err != nil {
		return nil, err
	}

	res.add("gm.plateau (Fig 8)", "peak bandwidth ~88 MB/s",
		fmt.Sprintf("%.1f", gm.PeakBandwidth), gm.PeakBandwidth > 78 && gm.PeakBandwidth < 94)
	res.add("portals.plateau (Fig 5/8)", "peak bandwidth ~50 MB/s",
		fmt.Sprintf("%.1f", ptl.PeakBandwidth), ptl.PeakBandwidth > 40 && ptl.PeakBandwidth < 60)
	res.add("gm.offload (Fig 11)", "no application offload",
		fmt.Sprintf("%v", gm.Offload), !gm.Offload)
	res.add("portals.offload (Fig 11)", "application offload",
		fmt.Sprintf("%v", ptl.Offload), ptl.Offload)
	res.add("gm.overhead (Fig 13)", "no work-phase overhead",
		fmt.Sprintf("%.1f%%", gm.WorkOverhead*100), gm.WorkOverhead < 0.02)
	res.add("portals.overhead (Fig 12)", "substantial work-phase overhead",
		fmt.Sprintf("%.1f%%", ptl.WorkOverhead*100), ptl.WorkOverhead > 0.05)
	res.add("gm.progressrule (Fig 17)", "MPI_Test in work buys bandwidth",
		fmt.Sprintf("%.0f%%", gm.TestGain*100), gm.TestGain > 0.05)
	res.add("gm.eagerpenalty (Fig 14)", "10 KB availability well below 100 KB",
		fmt.Sprintf("%.2f vs %.2f", gm.SmallMsgAvailability, gm.LargeMsgAvailability),
		gm.LargeMsgAvailability-gm.SmallMsgAvailability > 0.1)
	res.add("portals.lowavail (Fig 15)", "peak bandwidth only at low availability",
		fmt.Sprintf("%.2f", ptl.AvailabilityAtPeak), ptl.AvailabilityAtPeak < 0.3)

	// netperf runs on the same engine as the battery above, so the claim
	// passes the registry dispatch and the invariant checker.
	busy, err := runner.RunAs[*netperf.Result](context.Background(), sweep.DefaultEngine, runner.Point{
		Method: comb.MethodNetperf,
		System: "gm",
		Params: comb.NetperfConfig{Mode: comb.NetperfBusyWait, MsgSize: 100_000, LoopIters: 25_000_000},
	})
	if err != nil {
		return nil, err
	}
	res.add("netperf.misreport (s5)", "busy-wait netperf reports ~0.5 on GM",
		fmt.Sprintf("%.2f", busy.Availability),
		busy.Availability > 0.3 && busy.Availability < 0.7)

	return res, nil
}
