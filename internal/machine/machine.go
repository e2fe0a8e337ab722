package machine

import (
	"time"

	"comb/internal/cluster"
	"comb/internal/core"
	"comb/internal/invariant"
	"comb/internal/mpi"
	"comb/internal/obs"
	"comb/internal/platform"
	"comb/internal/sim"
)

// Sim implements core.Machine on a simulated rank.
type Sim struct {
	p    *sim.Proc
	c    *mpi.Comm
	node *cluster.Node
	obs  *obs.Collector
}

// NewSim binds a machine for the process p running rank c on node.
func NewSim(p *sim.Proc, c *mpi.Comm, node *cluster.Node) *Sim {
	return &Sim{p: p, c: c, node: node}
}

// Rank implements core.Machine.
func (m *Sim) Rank() int { return m.c.Rank() }

// Size implements core.Machine.
func (m *Sim) Size() int { return m.c.Size() }

// Now implements core.Machine using virtual time.
func (m *Sim) Now() time.Duration { return time.Duration(m.p.Now()) }

// Work implements core.Machine: iters iterations of the calibrated empty
// loop, i.e. user-priority CPU demand that higher-priority communication
// work dilates.
func (m *Sim) Work(iters int64) { m.node.Work(m.p, iters) }

// Sleep implements core.Sleeper: an idle wait that advances the clock
// without occupying a core.
func (m *Sim) Sleep(d time.Duration) { m.p.Sleep(sim.Time(d)) }

// Isend implements core.Machine.
func (m *Sim) Isend(dst, tag int, data []byte) core.Request {
	return m.c.Isend(m.p, dst, tag, data)
}

// Irecv implements core.Machine.
func (m *Sim) Irecv(src, tag int, buf []byte) core.Request {
	return m.c.Irecv(m.p, src, tag, buf)
}

// IsendLen implements core.Machine.
func (m *Sim) IsendLen(dst, tag, n int) core.Request {
	return m.c.IsendLen(m.p, dst, tag, n)
}

// IrecvLen implements core.Machine.
func (m *Sim) IrecvLen(src, tag, n int) core.Request {
	return m.c.IrecvLen(m.p, src, tag, n)
}

// Test implements core.Machine.
func (m *Sim) Test(r core.Request) bool { return m.c.Test(m.p, r.(*mpi.Request)) }

// Wait implements core.Machine.
func (m *Sim) Wait(r core.Request) { m.c.Wait(m.p, r.(*mpi.Request)) }

// Waitany implements core.Machine.
func (m *Sim) Waitany(rs []core.Request) int {
	return m.c.Waitany(m.p, unwrap(rs))
}

// Waitall implements core.Machine.
func (m *Sim) Waitall(rs []core.Request) { m.c.Waitall(m.p, unwrap(rs)) }

// Barrier implements core.Machine.
func (m *Sim) Barrier() { m.c.Barrier(m.p) }

// Observe attaches an observability collector: the benchmark engines'
// phase spans land in col on this rank's virtual timeline.  Pass nil to
// detach.
func (m *Sim) Observe(col *obs.Collector) { m.obs = col }

// SpansEnabled implements core.SpanRecorder.
func (m *Sim) SpansEnabled() bool { return m.obs != nil }

// RecordSpan implements core.SpanRecorder, forwarding the phase to the
// attached collector.
func (m *Sim) RecordSpan(cat, name string, start, end time.Duration, kv ...string) {
	if m.obs == nil {
		return
	}
	m.obs.Span(cat, name, m.c.Rank(), start, end, kv...)
}

// CPUAccount implements core.SystemMeter with the node's CPU counters.
func (m *Sim) CPUAccount() (time.Duration, int) {
	return time.Duration(m.node.CPU.TotalBusy()), m.node.CPU.Cores()
}

func unwrap(rs []core.Request) []*mpi.Request {
	out := make([]*mpi.Request, len(rs))
	for i, r := range rs {
		out[i] = r.(*mpi.Request)
	}
	return out
}

// PairView presents a two-rank view of a larger machine whose global
// ranks form consecutive pairs (0-1, 2-3, ...).  It lets the unmodified
// two-process COMB methods run on every pair of a bigger cluster
// simultaneously — the multi-pair contention experiment.  Barriers stay
// global, which keeps the concurrent pairs phase-aligned.
type PairView struct {
	M core.Machine
}

func (v PairView) base() int { return (v.M.Rank() / 2) * 2 }

// Rank implements core.Machine: the rank within the pair.
func (v PairView) Rank() int { return v.M.Rank() % 2 }

// Size implements core.Machine: a pair.
func (v PairView) Size() int { return 2 }

// Now implements core.Machine.
func (v PairView) Now() time.Duration { return v.M.Now() }

// Work implements core.Machine.
func (v PairView) Work(iters int64) { v.M.Work(iters) }

// Isend implements core.Machine, translating the pair-local destination.
func (v PairView) Isend(dst, tag int, data []byte) core.Request {
	return v.M.Isend(v.base()+dst, tag, data)
}

// Irecv implements core.Machine, translating the pair-local source.
func (v PairView) Irecv(src, tag int, buf []byte) core.Request {
	return v.M.Irecv(v.base()+src, tag, buf)
}

// IsendLen implements core.Machine, translating the pair-local destination.
func (v PairView) IsendLen(dst, tag, n int) core.Request {
	return v.M.IsendLen(v.base()+dst, tag, n)
}

// IrecvLen implements core.Machine, translating the pair-local source.
func (v PairView) IrecvLen(src, tag, n int) core.Request {
	return v.M.IrecvLen(v.base()+src, tag, n)
}

// Test implements core.Machine.
func (v PairView) Test(r core.Request) bool { return v.M.Test(r) }

// Wait implements core.Machine.
func (v PairView) Wait(r core.Request) { v.M.Wait(r) }

// Waitany implements core.Machine.
func (v PairView) Waitany(rs []core.Request) int { return v.M.Waitany(rs) }

// Waitall implements core.Machine.
func (v PairView) Waitall(rs []core.Request) { v.M.Waitall(rs) }

// Barrier implements core.Machine (global across all pairs).
func (v PairView) Barrier() { v.M.Barrier() }

// SpansEnabled implements core.SpanRecorder when the underlying machine
// does.
func (v PairView) SpansEnabled() bool {
	rec, ok := v.M.(core.SpanRecorder)
	return ok && rec.SpansEnabled()
}

// RecordSpan implements core.SpanRecorder, forwarding to the underlying
// machine (spans keep the global rank, so each pair's worker lands on
// its own exported timeline).
func (v PairView) RecordSpan(cat, name string, start, end time.Duration, kv ...string) {
	if rec, ok := v.M.(core.SpanRecorder); ok {
		rec.RecordSpan(cat, name, start, end, kv...)
	}
}

// Run builds the platform described by cfg and executes fn once per rank
// on a bound Sim machine, driving the simulation to completion.  The
// invariant checker watches the run: a violated conservation law comes
// back as the error.
func Run(cfg platform.Config, fn func(m core.Machine)) error {
	in, err := platform.New(cfg)
	if err != nil {
		return err
	}
	defer in.Close()
	chk := invariant.Attach(in.Sys, in.Comms, invariant.Options{})
	err = in.Run(func(p *sim.Proc, c *mpi.Comm) {
		fn(NewSim(p, c, in.Sys.Nodes[c.Rank()]))
	})
	if err != nil {
		return err
	}
	chk.Finish()
	return chk.Err()
}
