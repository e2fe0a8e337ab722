// Package polling registers COMB's polling method (§2.1) with the
// method registry: work chunks interleaved with completion polls at a
// swept poll interval.  Blank-import it (or method/all) to make
// "polling" resolvable.
package polling

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

func init() { method.Register(pollingMethod{}) }

// pollingMethod adapts core.RunPolling to the method plugin interface.
// Params travel as a core.PollingConfig value.
type pollingMethod struct{}

func (pollingMethod) Name() string { return "polling" }

func (pollingMethod) Describe() string {
	return "work chunks interleaved with completion polls at a swept poll interval (paper §2.1)"
}

func (pollingMethod) PhaseTaxonomy() []string { return []string{"dry", "work", "poll", "drain"} }

func (pollingMethod) Validate(params any) (any, error) {
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

// Hash keys on the experiment parameters only: CalibratedDry is a
// derived execution hint and results are identical with or without it.
// Defaulted fields are omitted so sparse and explicit specs share keys.
func (pollingMethod) Hash(params any) string {
	c := params.(core.PollingConfig)
	// strconv.AppendInt keeps this off the fmt path: Hash runs once per
	// sweep point and the figure benches gate allocs/op.
	b := make([]byte, 0, 48)
	b = strconv.AppendInt(b, int64(c.MsgSize), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, c.PollInterval, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, c.WorkTotal, 10)
	if c.QueueDepth != core.DefaultQueueDepth {
		b = append(b, "/q="...)
		b = strconv.AppendInt(b, int64(c.QueueDepth), 10)
	}
	if c.Tag != core.DefaultTag {
		b = append(b, "/tag="...)
		b = strconv.AppendInt(b, int64(c.Tag), 10)
	}
	return string(b)
}

func (pollingMethod) Run(ctx context.Context, in *platform.Instance, cfg method.Config) (method.Result, error) {
	c, err := asConfig(cfg.Params)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var res *core.PollingResult
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
		r, err := core.RunPolling(m, c)
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
		return nil, fmt.Errorf("polling: run produced no worker result")
	}
	return res, nil
}

// ValidateNodes implements method.NodeScaler: the polling benchmark runs
// on any even number of worker/support pairs.
func (pollingMethod) ValidateNodes(n int) error {
	return method.ValidatePairNodes("polling", n)
}

func (pollingMethod) DecodeParams(b []byte) (any, error) {
	c, err := method.DecodeJSON[core.PollingConfig](b)
	if err != nil {
		return nil, err
	}
	return *c, nil
}

func (pollingMethod) DecodeResult(b []byte) (method.Result, error) {
	return method.DecodeJSON[core.PollingResult](b)
}

// CalibIters implements method.Calibratable: the dry phase runs
// WorkTotal uncontended iterations.
func (pollingMethod) CalibIters(params any) (int64, bool) {
	return params.(core.PollingConfig).WorkTotal, true
}

// Calibrated implements method.Calibratable.
func (pollingMethod) Calibrated(params any, dry time.Duration) any {
	c := params.(core.PollingConfig)
	c.CalibratedDry = dry
	return c
}

// CalibResult implements method.Calibratable.
func (pollingMethod) CalibResult(res method.Result) time.Duration {
	return res.(*core.PollingResult).DryTime
}

// CheckResult implements method.ResultChecker.
func (pollingMethod) CheckResult(chk *invariant.Checker, res method.Result) {
	chk.CheckPolling(res.(*core.PollingResult))
}

// FuzzParams implements method.Fuzzer with small, checker-clean runs.
func (pollingMethod) FuzzParams(crng *sim.Rand) any {
	msgSize := 1024 * (1 + crng.Intn(32)) // 1-32 KB: eager and rendezvous paths
	poll := int64(1_000 * (1 + crng.Intn(50)))
	return core.PollingConfig{
		Config:       core.Config{MsgSize: msgSize},
		PollInterval: poll,
		WorkTotal:    poll * int64(3+crng.Intn(8)),
		QueueDepth:   1 + crng.Intn(4),
	}
}

// BindFlags implements method.FlagBinder.
func (pollingMethod) BindFlags(fs *flag.FlagSet) func() any {
	size := fs.Int("size", core.DefaultMsgSize, "message size in bytes")
	poll := fs.Int64("poll", 100_000, "poll interval in work iterations")
	// The CLI's default point has always run 25M iterations (~50 ms);
	// zero still selects core.DefaultWorkTotal.
	work := fs.Int64("work", 25_000_000, "total work iterations (0 = default)")
	queue := fs.Int("queue", 0, "messages kept in flight each direction (0 = default)")
	return func() any {
		return core.PollingConfig{
			Config:       core.Config{MsgSize: *size},
			PollInterval: *poll,
			WorkTotal:    *work,
			QueueDepth:   *queue,
		}
	}
}

func asConfig(params any) (core.PollingConfig, error) {
	switch p := params.(type) {
	case core.PollingConfig:
		return p, nil
	case *core.PollingConfig:
		if p != nil {
			return *p, nil
		}
	}
	return core.PollingConfig{}, fmt.Errorf("polling: params must be a core.PollingConfig, got %T", params)
}
