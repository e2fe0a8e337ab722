package platform

import (
	"context"
	"fmt"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/sim"
	"comb/internal/transport"
)

// Config selects the system to simulate.
type Config struct {
	// Transport is a registry name ("gm", "portals", "ideal") used when
	// Custom is nil.
	Transport string
	// Custom, when non-nil, overrides Transport with a pre-configured
	// transport (used for ablations).
	Custom transport.Transport
	// Nodes is the cluster size (default 2, as in the paper).
	Nodes int
	// Platform overrides the hardware model; zero value means
	// cluster.PlatformPIII500.
	Platform *cluster.Platform
	// CPUs overrides the processors-per-node count of the chosen platform
	// (0 keeps the platform's own value; the reference platform is
	// uniprocessor, like the paper's testbed).
	CPUs int
	// Seed overrides the wire's jitter/loss RNG seed (0 keeps the
	// platform's own, so runs stay byte-reproducible by default).  It is
	// applied after any transport link preference, so seeded runs are
	// replayable on every transport.
	Seed uint64
	// SimWorkers > 1 opts into the parallel engine: one partition per
	// node advanced concurrently by up to SimWorkers goroutines (the
	// caller's included, and never more than GOMAXPROCS) in
	// conservative time windows.  Results are bit-identical to the serial
	// engine, so the choice never affects hashes or cache keys.  The
	// builder silently falls back to serial whenever parallelism cannot
	// help or cannot be conservative: Nodes <= 2, zero lookahead on the
	// link, wire jitter or loss (global RNG stream) — the conditions
	// cluster.Windowable checks — or a fault-injecting transport
	// (transport.FaultMarker).
	SimWorkers int
}

// Instance is a ready-to-run simulated system.
type Instance struct {
	Sys       *cluster.System
	Transport transport.Transport
	Comms     []*mpi.Comm

	// par drives the partitioned system between window barriers; nil on
	// the serial engine.
	par *sim.Windows
}

// Parallel reports whether this instance runs on the parallel engine.
func (in *Instance) Parallel() bool { return in.par != nil }

// WindowStats reports the parallel engine's window counters (windows
// advanced, windows with fewer than two active partitions) and whether
// the parallel engine was in use at all.
func (in *Instance) WindowStats() (advanced, stalled uint64, ok bool) {
	if in.par == nil {
		return 0, 0, false
	}
	advanced, stalled = in.par.Stats()
	return advanced, stalled, true
}

// New builds an instance from cfg.
func New(cfg Config) (*Instance, error) {
	n := cfg.Nodes
	if n == 0 {
		n = 2
	}
	if n < 1 {
		return nil, fmt.Errorf("platform: invalid node count %d", n)
	}
	p := cluster.PlatformPIII500()
	if cfg.Platform != nil {
		p = *cfg.Platform
	}
	if cfg.CPUs < 0 {
		return nil, fmt.Errorf("platform: invalid CPU count %d", cfg.CPUs)
	}
	if cfg.CPUs > 0 {
		p.CPUs = cfg.CPUs
	}
	tr := cfg.Custom
	if tr == nil {
		var err error
		tr, err = transport.ByName(cfg.Transport)
		if err != nil {
			return nil, err
		}
	}
	// Transports built for a different interconnect (Ethernet rather than
	// Myrinet) bring their own wire, unless the caller pinned a platform.
	if lp, ok := tr.(transport.LinkPreferencer); ok && cfg.Platform == nil {
		p.Link, p.PacketHeader = lp.PreferredLink()
	}
	if cfg.Seed != 0 {
		p.Link.Seed = cfg.Seed
	}
	if useParallel(cfg, n, p, tr) {
		sys := cluster.NewPartitionedSystem(n, p)
		eps := tr.Build(sys)
		comms := make([]*mpi.Comm, n)
		for i, ep := range eps {
			comms[i] = mpi.NewComm(sys.Nodes[i].Env, i, n, ep)
		}
		par := sim.NewWindows(sys.Envs, sys.Fabric.Lookahead(), cfg.SimWorkers, sys.Fabric.Merge)
		return &Instance{Sys: sys, Transport: tr, Comms: comms, par: par}, nil
	}
	sys := cluster.NewSystem(n, p)
	eps := tr.Build(sys)
	comms := make([]*mpi.Comm, n)
	for i, ep := range eps {
		comms[i] = mpi.NewComm(sys.Env, i, n, ep)
	}
	return &Instance{Sys: sys, Transport: tr, Comms: comms}, nil
}

// useParallel decides whether the parallel engine is both requested and
// conservatively sound for this configuration.  p is the final platform
// (link preferences and seed already applied).  Injected deliveries
// reorder across partitions, so a fault-injecting transport stays serial.
func useParallel(cfg Config, n int, p cluster.Platform, tr transport.Transport) bool {
	if cfg.SimWorkers <= 1 || !cluster.Windowable(n, p.Link) {
		return false
	}
	fm, ok := tr.(transport.FaultMarker)
	return !ok || !fm.InjectsFaults()
}

// Run spawns fn once per rank and drives the simulation until the event
// queue drains.  It returns an error if any rank failed to finish (a
// communication deadlock).
func (in *Instance) Run(fn func(p *sim.Proc, c *mpi.Comm)) error {
	return in.RunContext(context.Background(), fn)
}

// cancelCheckEvery is the virtual-time spacing of the cancellation watcher
// events RunContext plants when its context is cancellable.  The watcher
// only reads state, so it cannot perturb the simulation: results are
// identical with and without it.
const cancelCheckEvery = sim.Millisecond

// RunContext is Run with cancellation: when ctx is cancelled the event
// loop stops at the next watcher check and RunContext returns ctx.Err()
// instead of driving the point to completion.  A non-cancellable context
// (e.g. context.Background()) adds no watcher and no overhead.
//
// On the parallel engine, fn runs concurrently across partitions: the
// calling goroutine and each other window party own a subset of ranks.
// fn must therefore synchronize any state it shares across ranks (the
// simulation itself — comms, machines, per-rank state — is already
// partition-private); cancellation is checked once per window instead
// of via a watcher event.
func (in *Instance) RunContext(ctx context.Context, fn func(p *sim.Proc, c *mpi.Comm)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if in.par != nil {
		return in.runParallel(ctx, fn)
	}
	procs := make([]*sim.Proc, len(in.Comms))
	for i, c := range in.Comms {
		c := c
		procs[i] = in.Sys.Env.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			fn(p, c)
		})
	}
	if ctx.Done() != nil {
		allDone := func() bool {
			for _, p := range procs {
				if !p.Done() {
					return false
				}
			}
			return true
		}
		var watch func()
		watch = func() {
			if ctx.Err() != nil {
				in.Sys.Env.Stop()
				return
			}
			// Stop watching once every rank finished (remaining events are
			// just drain work) or when nothing but the watcher itself is
			// left queued (a deadlock: rescheduling would livelock).
			if allDone() || in.Sys.Env.Pending() == 0 {
				return
			}
			in.Sys.Env.Schedule(cancelCheckEvery, watch)
		}
		in.Sys.Env.Schedule(cancelCheckEvery, watch)
	}
	in.Sys.Env.Run()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, p := range procs {
		if !p.Done() {
			return fmt.Errorf("platform: rank %d did not finish (deadlock at t=%v)", i, in.Sys.Env.Now())
		}
	}
	return nil
}

// runParallel spawns each rank on its own partition environment and
// drives the window scheduler to completion.
func (in *Instance) runParallel(ctx context.Context, fn func(p *sim.Proc, c *mpi.Comm)) error {
	procs := make([]*sim.Proc, len(in.Comms))
	for i, c := range in.Comms {
		c := c
		procs[i] = in.Sys.Nodes[i].Env.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			fn(p, c)
		})
	}
	if err := in.par.Run(ctx); err != nil {
		return err
	}
	for i, p := range procs {
		if !p.Done() {
			return fmt.Errorf("platform: rank %d did not finish (deadlock at t=%v)", i, in.Sys.Now())
		}
	}
	return nil
}

// Close tears the simulation down (terminating parked processes).
func (in *Instance) Close() { in.Sys.Close() }

// Launch is the one-shot helper: build cfg, run fn per rank, tear down.
func Launch(cfg Config, fn func(p *sim.Proc, c *mpi.Comm)) error {
	in, err := New(cfg)
	if err != nil {
		return err
	}
	defer in.Close()
	return in.Run(fn)
}
