package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"comb/internal/cluster"
	"comb/internal/method"
	"comb/internal/mpi"
	"comb/internal/platform"
	"comb/internal/runpipe"
	"comb/internal/spec"
)

// tally accumulates the per-layer counters and call timings of probe
// runs.  It is safe for concurrent probes.
type tally struct {
	mu                                      sync.Mutex
	runs, parallel                          int
	events, windows, stalls                 uint64
	packets, wireBytes, dropped, duplicated int64
	user, kernel, interrupt                 time.Duration
	messages, msgBytes, collectives         int64
	normalize, build, execute, hash         []float64 // seconds per call
}

// probe runs one spec through the steps of runpipe.Run — normalize,
// build the platform, execute the method, hash the outcome — timing and
// tracing each layer call, then reads every layer's counters off the
// finished instance.  The hash it returns is the one runpipe.Run reports.
func (t *tally) probe(ctx context.Context, tr *tracer, parent int, s spec.Spec) (string, error) {
	id := tr.start(parent, "bench.probe")
	defer tr.stop(id)
	call := func(name string, fn func() error) (float64, error) {
		sid := tr.start(id, name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0).Seconds()
		tr.stop(sid)
		return d, err
	}

	var n spec.Spec
	var m method.Method
	dNorm, err := call("spec.Normalized", func() (err error) {
		n, m, err = s.Normalized()
		return err
	})
	if err != nil {
		return "", err
	}
	var in *platform.Instance
	dBuild, err := call("platform.NewPlatform", func() (err error) {
		in, err = runpipe.NewPlatform(n)
		return err
	})
	if err != nil {
		return "", err
	}
	defer in.Close()
	var res method.Result
	var meter *mpi.Meter
	dExec, err := call("method.Execute", func() error {
		r, chk, err := method.Execute(ctx, m, in, method.Config{System: n.System, CPUs: n.CPUs, Params: n.Params}, method.ExecOptions{})
		if err != nil {
			return err
		}
		res, meter = r, chk.Meter()
		return chk.Err()
	})
	if err != nil {
		return "", err
	}
	st := runStats(in)
	var h string
	dHash, err := call("runpipe.HashOutcome", func() (err error) {
		h, err = runpipe.HashOutcome(m.Name(), res, st)
		return err
	})
	if err != nil {
		return "", err
	}
	t.record(in, meter, st, dNorm, dBuild, dExec, dHash)
	return h, nil
}

// runStats reads the hardware counters runpipe.Run hashes.
func runStats(in *platform.Instance) *runpipe.RunStats {
	st := &runpipe.RunStats{}
	st.Packets, st.WireBytes, _ = in.Sys.Fabric.Stats()
	for _, nd := range in.Sys.Nodes {
		st.CPUs = append(st.CPUs, runpipe.NodeCPU{
			Node:      nd.ID,
			Cores:     nd.CPU.Cores(),
			User:      time.Duration(nd.CPU.Usage(cluster.User)),
			Kernel:    time.Duration(nd.CPU.Usage(cluster.Kernel)),
			Interrupt: time.Duration(nd.CPU.Usage(cluster.Interrupt)),
		})
	}
	return st
}

func (t *tally) record(in *platform.Instance, meter *mpi.Meter, st *runpipe.RunStats, norm, build, exec, hash float64) {
	var steps uint64
	for _, e := range in.Sys.Envs {
		steps += e.Steps()
	}
	adv, stall, _ := in.WindowStats()
	drop, dup := in.Sys.Fabric.InjectStats()
	var coll int64
	for _, c := range in.Comms {
		started, _ := c.CollStats()
		coll += started
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	if in.Parallel() {
		t.parallel++
	}
	t.events += steps
	t.windows += adv
	t.stalls += stall
	t.packets += st.Packets
	t.wireBytes += st.WireBytes
	t.dropped += drop
	t.duplicated += dup
	for _, c := range st.CPUs {
		t.user += c.User
		t.kernel += c.Kernel
		t.interrupt += c.Interrupt
	}
	t.messages += meter.DoneSends
	t.msgBytes += meter.SentBytes
	t.collectives += coll
	t.normalize = append(t.normalize, norm)
	t.build = append(t.build, build)
	t.execute = append(t.execute, exec)
	t.hash = append(t.hash, hash)
}

// metrics files the tally's per-layer metrics into m.  Rates divide by
// the summed wall time of the method.Execute calls.
func (t *tally) metrics(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	exec := sum(t.execute)
	m["sim.events"] = float64(t.events)
	m["sim.events_per_s"] = ratio(float64(t.events), exec)
	m["sim.windows"] = float64(t.windows)
	m["sim.stall_ratio"] = ratio(float64(t.stalls), float64(t.windows))
	m["cluster.packets"] = float64(t.packets)
	m["cluster.packets_per_s"] = ratio(float64(t.packets), exec)
	m["cluster.wire_mb"] = float64(t.wireBytes) / 1e6
	m["cluster.user_vs"] = t.user.Seconds()
	m["cluster.kernel_vs"] = t.kernel.Seconds()
	m["cluster.interrupt_vs"] = t.interrupt.Seconds()
	m["transport.host_us_per_msg"] = ratio((t.kernel+t.interrupt).Seconds()*1e6, float64(t.messages))
	m["mpi.messages"] = float64(t.messages)
	m["mpi.mb"] = float64(t.msgBytes) / 1e6
	m["mpi.coll_stages"] = float64(t.collectives)
	m["method.execute_ms_p50"] = median(t.execute) * 1e3
	m["method.execute_ms_max"] = maxOf(t.execute) * 1e3
	m["method.runs"] = float64(t.runs)
	m["platform.build_ms"] = median(t.build) * 1e3
	m["platform.parallel_share"] = ratio(float64(t.parallel), float64(t.runs))
	m["spec.normalize_us"] = median(t.normalize) * 1e6
	m["runpipe.hash_us"] = median(t.hash) * 1e6
	m["faultinject.dropped"] = float64(t.dropped)
	m["faultinject.duplicated"] = float64(t.duplicated)
}

// replay probes every spec, on up to workers goroutines, for its
// counters alone.
func (t *tally) replay(ctx context.Context, workers int, specs []spec.Spec) error {
	errs := make([]error, len(specs))
	parallel(workers, len(specs), func(i int) { _, errs[i] = t.probe(ctx, nil, 0, specs[i]) })
	return errors.Join(errs...)
}

// parallel calls fn(i) for every i in [0, n) on up to workers
// goroutines and returns once every call has.
func parallel(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
