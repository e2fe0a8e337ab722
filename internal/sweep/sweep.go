package sweep

import (
	"context"
	"fmt"

	"comb/internal/core"
	"comb/internal/runner"
	"comb/internal/stats"

	// The sweep builds polling and PWW points by name; register both.
	_ "comb/internal/method/polling"
	_ "comb/internal/method/pww"
)

// DefaultEngine executes and memoizes sweep points when Options does not
// supply an engine.  The zero-config engine is parallel (GOMAXPROCS
// workers) with no disk tier; cmd/comb replaces it at startup to honour
// -j and the persistent cache.
var DefaultEngine = runner.New(runner.Config{})

// Options tunes sweep resolution and execution.
type Options struct {
	// Quick shrinks sweeps (fewer points, one message size, shorter runs)
	// for tests and smoke runs.
	Quick bool
	// Engine overrides DefaultEngine (worker count, caching, progress).
	Engine *runner.Engine
	// Context cancels point execution; nil means context.Background().
	Context context.Context
	// Strategy picks how curves spend engine runs: nil or grid is the
	// classic dense evaluation (bit-identical output); bisect, knee and
	// adaptive-reps search instead (see internal/strategy and RunCurve).
	Strategy *Strategy
	// Obs, when non-nil, receives the comb_sweep_points_*_total
	// counters as curves complete.
	Obs *Registry
	// Stats, when non-nil, accumulates per-build evaluated/skipped
	// counts for figure manifests.
	Stats *SweepStats
}

// engine returns the engine builds run on.
func (o Options) engine() *runner.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return DefaultEngine
}

// ctx returns the build's context.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// paperSizes are the message sizes the paper's multi-size figures use.
var paperSizes = []int{10_000, 50_000, 100_000, 300_000}

// sizes returns the sweep's message sizes.
func (o Options) sizes() []int {
	if o.Quick {
		return []int{100_000}
	}
	return paperSizes
}

// pollAxis returns the polling-method x axis (loop iterations).
func (o Options) pollAxis() []int64 {
	if o.Quick {
		return stats.LogSpaceInt(1_000, 10_000_000, 1)
	}
	return stats.LogSpaceInt(10, 100_000_000, 2)
}

// workAxis returns the PWW-method x axis (loop iterations).
func (o Options) workAxis() []int64 {
	if o.Quick {
		return stats.LogSpaceInt(10_000, 10_000_000, 1)
	}
	return stats.LogSpaceInt(1_000, 100_000_000, 2)
}

func (o Options) reps() int {
	if o.Quick {
		return 8
	}
	return 20
}

// workTotalFor picks the polling method's fixed work so that every point
// sees enough polls and enough messages for a stable measurement.
func workTotalFor(poll int64) int64 {
	wt := 10 * poll
	const (
		minWork = 25_000_000    // ~50 ms of work on the reference platform
		maxWork = 1_500_000_000 // ~3 s
	)
	if wt < minWork {
		return minWork
	}
	if wt > maxWork {
		return maxWork
	}
	return wt
}

// ClearCache drops DefaultEngine's in-memory memo (used by tests).  Disk
// cache entries, if configured, survive.
func ClearCache() { DefaultEngine.ClearMemo() }

// pollingPointSpec is the canonical point for one polling sweep sample.
func pollingPointSpec(system string, size int, poll int64) runner.Point {
	return runner.Point{
		Method: "polling",
		System: system,
		Params: core.PollingConfig{
			Config:       core.Config{MsgSize: size},
			PollInterval: poll,
			WorkTotal:    workTotalFor(poll),
		},
	}
}

// pwwPointSpec is the canonical point for one PWW sweep sample.
func pwwPointSpec(system string, size int, work int64, reps int, testInWork bool) runner.Point {
	return runner.Point{
		Method: "pww",
		System: system,
		Params: core.PWWConfig{
			Config:       core.Config{MsgSize: size},
			WorkInterval: work,
			Reps:         reps,
			TestInWork:   testInWork,
		},
	}
}

// sizeLabel renders 10000 as "10 KB" etc., matching the paper's legends.
func sizeLabel(size int) string {
	if size%1000 == 0 {
		return fmt.Sprintf("%d KB", size/1000)
	}
	return fmt.Sprintf("%d B", size)
}
