package whitebova

import (
	"context"
	"fmt"
	"time"

	"comb/internal/core"
	"comb/internal/runpipe"
	"comb/internal/spec"

	_ "comb/internal/method/pww" // the probe's two runs are PWW measurements
)

// Result is the overlap classification for one message size.
type Result struct {
	System  string
	MsgSize int
	// CommOnly is the per-cycle communication time with (almost) no work.
	CommOnly time.Duration
	// WorkOnly is the per-cycle work time with no communication.
	WorkOnly time.Duration
	// Combined is the per-cycle time when communication and work are
	// issued together (post, work, wait).
	Combined time.Duration
	// OverlapFraction is the share of the smaller component hidden by the
	// larger one: (CommOnly + WorkOnly - Combined) / min(CommOnly,
	// WorkOnly).  1 means full overlap, 0 (or less) means none.
	OverlapFraction float64
	// Overlaps is the White & Bova verdict: substantial overlap exists.
	Overlaps bool
}

// String gives a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("whitebova %s size=%dB: overlap %.0f%% (comm %v + work %v -> %v)",
		r.System, r.MsgSize, r.OverlapFraction*100, r.CommOnly, r.WorkOnly, r.Combined)
}

// OverlapThreshold is the fraction above which a size is classified as
// overlapping.
const OverlapThreshold = 0.5

// runPWW runs one uncached PWW measurement of the named system through
// the shared pipeline.
func runPWW(system string, msgSize int, work int64, reps int) (*core.PWWResult, error) {
	out, err := runpipe.Run(context.Background(), spec.Spec{
		Method: spec.MethodPWW,
		System: system,
		PWW: &core.PWWConfig{
			Config:       core.Config{MsgSize: msgSize},
			WorkInterval: work,
			Reps:         reps,
		},
	})
	if err != nil {
		return nil, err
	}
	return out.PWW, nil
}

// Classify measures the named system at the given message size, using a
// work interval sized to roughly match the communication time.
func Classify(system string, msgSize int) (*Result, error) {
	const reps = 20
	// Communication-only time per cycle: a PWW run with negligible work.
	comm, err := runPWW(system, msgSize, 1, reps)
	if err != nil {
		return nil, err
	}
	commOnly := comm.Elapsed / time.Duration(reps)

	// Pick a work interval close to the communication time (the paper's
	// related work probes overlap where the two are comparable), at 2 ns
	// per iteration on the reference platform.
	workIters := int64(commOnly.Nanoseconds() / 2)
	if workIters < 1000 {
		workIters = 1000
	}
	combined, err := runPWW(system, msgSize, workIters, reps)
	if err != nil {
		return nil, err
	}

	workOnly := combined.WorkOnly
	combinedCycle := combined.Elapsed / time.Duration(reps)

	minPart := commOnly
	if workOnly < minPart {
		minPart = workOnly
	}
	frac := 0.0
	if minPart > 0 {
		frac = float64(commOnly+workOnly-combinedCycle) / float64(minPart)
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return &Result{
		System:          system,
		MsgSize:         msgSize,
		CommOnly:        commOnly,
		WorkOnly:        workOnly,
		Combined:        combinedCycle,
		OverlapFraction: frac,
		Overlaps:        frac >= OverlapThreshold,
	}, nil
}

// Survey classifies the system across the paper's message sizes.
func Survey(system string, sizes []int) ([]*Result, error) {
	if len(sizes) == 0 {
		sizes = []int{10_000, 50_000, 100_000, 300_000}
	}
	out := make([]*Result, 0, len(sizes))
	for _, s := range sizes {
		r, err := Classify(system, s)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
