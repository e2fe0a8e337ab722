// Package pww registers COMB's post-work-wait method (§2.2, with the
// §4.3 MPI_Test-in-work variant) with the method registry.
// Blank-import it (or method/all) to make "pww" resolvable.
package pww

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"sync"
	"time"

	"comb/internal/core"
	"comb/internal/invariant"
	"comb/internal/machine"
	"comb/internal/method"
	"comb/internal/mpi"
	"comb/internal/platform"
	"comb/internal/sim"
)

func init() { method.Register(pwwMethod{}) }

// pwwMethod adapts core.RunPWW to the method plugin interface.  Params
// travel as a core.PWWConfig value.
type pwwMethod struct{}

func (pwwMethod) Name() string { return "pww" }

func (pwwMethod) Describe() string {
	return "post-work-wait cycles timing each MPI call around a work phase (paper §2.2; -test plants the §4.3 rescue call)"
}

func (pwwMethod) PhaseTaxonomy() []string { return []string{"dry", "post", "work", "wait"} }

func (pwwMethod) Validate(params any) (any, error) {
	cfg, err := asConfig(params)
	if err != nil {
		return nil, err
	}
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Hash keys on the experiment parameters only; CalibratedDry is a
// derived execution hint (see the polling method).  Defaulted fields
// are omitted so sparse and explicit specs share keys.
func (pwwMethod) Hash(params any) string {
	c := params.(core.PWWConfig)
	// strconv.AppendInt keeps this off the fmt path: Hash runs once per
	// sweep point and the figure benches gate allocs/op.
	b := make([]byte, 0, 48)
	b = strconv.AppendInt(b, int64(c.MsgSize), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, c.WorkInterval, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.Reps), 10)
	b = append(b, '/')
	b = strconv.AppendBool(b, c.TestInWork)
	if c.BatchSize != core.DefaultBatchSize {
		b = append(b, "/b="...)
		b = strconv.AppendInt(b, int64(c.BatchSize), 10)
	}
	if c.Interleave != 1 {
		b = append(b, "/il="...)
		b = strconv.AppendInt(b, int64(c.Interleave), 10)
	}
	if c.Tag != core.DefaultTag {
		b = append(b, "/tag="...)
		b = strconv.AppendInt(b, int64(c.Tag), 10)
	}
	return string(b)
}

func (pwwMethod) Run(ctx context.Context, in *platform.Instance, cfg method.Config) (method.Result, error) {
	c, err := asConfig(cfg.Params)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var res *core.PWWResult
	var ferr error
	err = in.RunContext(ctx, func(p *sim.Proc, mc *mpi.Comm) {
		mach := machine.NewSim(p, mc, in.Sys.Nodes[mc.Rank()])
		if cfg.Spans != nil {
			mach.Observe(cfg.Spans)
		}
		var m core.Machine = mach
		if mc.Size() > 2 {
			// Multi-pair topology: every consecutive pair runs the
			// unmodified two-rank benchmark; the reported result is pair
			// 0's (global rank 0), measured under full switch contention.
			m = machine.PairView{M: mach}
		}
		r, err := core.RunPWW(m, c)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if ferr == nil {
				ferr = err
			}
			return
		}
		if r != nil && mc.Rank() == 0 {
			res = r
		}
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("pww: run produced no worker result")
	}
	return res, nil
}

// ValidateNodes implements method.NodeScaler: the post-work-wait
// benchmark runs on any even number of worker/support pairs.
func (pwwMethod) ValidateNodes(n int) error {
	return method.ValidatePairNodes("pww", n)
}

func (pwwMethod) DecodeParams(b []byte) (any, error) {
	c, err := method.DecodeJSON[core.PWWConfig](b)
	if err != nil {
		return nil, err
	}
	return *c, nil
}

func (pwwMethod) DecodeResult(b []byte) (method.Result, error) {
	return method.DecodeJSON[core.PWWResult](b)
}

// CalibIters implements method.Calibratable: the dry phase measures one
// WorkInterval of uncontended iterations.
func (pwwMethod) CalibIters(params any) (int64, bool) {
	return params.(core.PWWConfig).WorkInterval, true
}

// Calibrated implements method.Calibratable.
func (pwwMethod) Calibrated(params any, dry time.Duration) any {
	c := params.(core.PWWConfig)
	c.CalibratedDry = dry
	return c
}

// CalibResult implements method.Calibratable.
func (pwwMethod) CalibResult(res method.Result) time.Duration {
	return res.(*core.PWWResult).WorkOnly
}

// CheckResult implements method.ResultChecker.
func (pwwMethod) CheckResult(chk *invariant.Checker, res method.Result) {
	chk.CheckPWW(res.(*core.PWWResult))
}

// FuzzParams implements method.Fuzzer with small, checker-clean runs.
func (pwwMethod) FuzzParams(crng *sim.Rand) any {
	msgSize := 1024 * (1 + crng.Intn(32)) // 1-32 KB: eager and rendezvous paths
	return core.PWWConfig{
		Config:       core.Config{MsgSize: msgSize},
		WorkInterval: int64(10_000 * (1 + crng.Intn(40))),
		Reps:         3 + crng.Intn(6),
		BatchSize:    1 + crng.Intn(4),
		TestInWork:   crng.Intn(2) == 1,
	}
}

// BindFlags implements method.FlagBinder.
func (pwwMethod) BindFlags(fs *flag.FlagSet) func() any {
	size := fs.Int("size", core.DefaultMsgSize, "message size in bytes")
	work := fs.Int64("work", 1_000_000, "work interval in iterations per cycle")
	reps := fs.Int("reps", 0, "post-work-wait cycles (0 = default)")
	batch := fs.Int("batch", 0, "messages posted per cycle each direction (0 = default)")
	test := fs.Bool("test", false, "plant one MPI_Test early in the work phase (§4.3)")
	il := fs.Int("interleave", 0, "batches kept in flight (0 = default 1)")
	return func() any {
		return core.PWWConfig{
			Config:       core.Config{MsgSize: *size},
			WorkInterval: *work,
			Reps:         *reps,
			BatchSize:    *batch,
			TestInWork:   *test,
			Interleave:   *il,
		}
	}
}

func asConfig(params any) (core.PWWConfig, error) {
	switch p := params.(type) {
	case core.PWWConfig:
		return p, nil
	case *core.PWWConfig:
		if p != nil {
			return *p, nil
		}
	}
	return core.PWWConfig{}, fmt.Errorf("pww: params must be a core.PWWConfig, got %T", params)
}
