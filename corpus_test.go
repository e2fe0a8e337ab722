package comb_test

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"comb/internal/cluster"
	"comb/internal/core"
	"comb/internal/invariant"
	"comb/internal/machine"
	"comb/internal/method"
	_ "comb/internal/method/all"
	"comb/internal/method/collov"
	"comb/internal/method/halo"
	"comb/internal/method/pingpong"
	"comb/internal/mpi"
	"comb/internal/platform"
	"comb/internal/runpipe"
	"comb/internal/scenario"
	"comb/internal/sim"
	"comb/internal/spec"
	"comb/internal/sweep"
	"comb/internal/transport"
)

// corpusPath is the committed record of every corpus case's result.
const corpusPath = "testdata/corpus.json"

var blessCorpus = flag.Bool("bless-corpus", false, "rewrite "+corpusPath+" from this build instead of diffing against it (see scripts/regen_corpus.sh)")

// corpusEntry is one deterministic run's fingerprint: the result hash
// runpipe.Run reports (it covers the method result and the hardware
// counters) plus the work counters of the layers a message crosses.
type corpusEntry struct {
	Key      string `json:"key"`
	Hash     string `json:"hash"`
	Events   uint64 `json:"sim.events"`
	Windows  uint64 `json:"sim.windows"`
	Packets  int64  `json:"packets"`
	Messages int64  `json:"messages"`
	Stages   int64  `json:"coll_stages"`
}

// corpusCase is one run of the corpus: a spec run the way runpipe.Run
// runs it, or a polling run on a hand-built platform the way machine.Run
// runs it.
type corpusCase struct {
	key     string
	spec    spec.Spec
	machine *platform.Config
	polling core.PollingConfig
}

// TestCorpus recomputes every corpus case and demands the committed
// result hash and work counters.  The simulator is deterministic, so a
// difference is a behaviour change: the test prints one line per key
// that moved, and an intended change is re-blessed with
// scripts/regen_corpus.sh.
func TestCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("the corpus simulates a few hundred runs")
	}
	cases, err := corpusCases()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]corpusEntry, len(cases))
	errs := make([]error, len(cases))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(cases) {
					return
				}
				got[k], errs[k] = cases[k].run()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(a, b int) bool { return got[a].Key < got[b].Key })

	if *blessCorpus {
		var b strings.Builder
		b.WriteString("[\n")
		for k, e := range got {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			if k < len(got)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]\n")
		if err := os.WriteFile(corpusPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("blessed %d cases into %s", len(got), corpusPath)
		return
	}

	raw, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("%v (bless a corpus with scripts/regen_corpus.sh)", err)
	}
	var want []corpusEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", corpusPath, err)
	}
	if diffs := diffCorpus(want, got); len(diffs) > 0 {
		t.Errorf("%d of %d corpus cases changed (bless an intended change with scripts/regen_corpus.sh):\n%s",
			len(diffs), len(got), strings.Join(diffs, "\n"))
	}
}

// diffCorpus returns one line per key whose entry differs, is missing
// from got, or is new in got.
func diffCorpus(want, got []corpusEntry) []string {
	byKey := make(map[string]corpusEntry, len(want))
	for _, e := range want {
		byKey[e.Key] = e
	}
	var out []string
	for _, g := range got {
		w, ok := byKey[g.Key]
		delete(byKey, g.Key)
		if !ok {
			out = append(out, fmt.Sprintf("%s: new case, not in %s", g.Key, corpusPath))
			continue
		}
		var d []string
		field := func(name string, a, b any) {
			if a != b {
				d = append(d, fmt.Sprintf("%s %v -> %v", name, a, b))
			}
		}
		field("hash", w.Hash, g.Hash)
		field("sim.events", w.Events, g.Events)
		field("sim.windows", w.Windows, g.Windows)
		field("packets", w.Packets, g.Packets)
		field("messages", w.Messages, g.Messages)
		field("coll_stages", w.Stages, g.Stages)
		if len(d) > 0 {
			out = append(out, fmt.Sprintf("%s: %s", g.Key, strings.Join(d, "; ")))
		}
	}
	for k := range byKey {
		out = append(out, fmt.Sprintf("%s: missing, no longer a corpus case", k))
	}
	sort.Strings(out)
	return out
}

// corpusCases lists the corpus: every scenario-pack cell, every
// quick-axis figure point, the scaling grid on every transport on both
// engines, seeded SMP polling, and polling on platforms with jitter,
// loss and a shared backplane.
func corpusCases() ([]corpusCase, error) {
	var cases []corpusCase
	seen := map[string]bool{}
	add := func(s spec.Spec) error {
		n, m, err := s.Normalized()
		if err != nil {
			return err
		}
		key := spec.KeyOf(n, m)
		if s.SimWorkers > 1 {
			key += fmt.Sprintf(" simworkers=%d", s.SimWorkers)
		}
		if !seen[key] {
			seen[key] = true
			cases = append(cases, corpusCase{key: key, spec: s})
		}
		return nil
	}

	packs, err := scenario.LoadDir(filepath.Join("testdata", "scenarios"))
	if err != nil {
		return nil, err
	}
	for _, p := range packs {
		cells, err := scenario.Expand(p, nil)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			if err := add(c.Spec); err != nil {
				return nil, err
			}
		}
	}

	for _, f := range sweep.Figures() {
		for _, pt := range f.Points(sweep.Options{Quick: true}) {
			if err := add(pt); err != nil {
				return nil, err
			}
		}
	}

	grid := []struct {
		method string
		nodes  []int
		params any
	}{
		{"polling", []int{2, 4, 8}, &core.PollingConfig{Config: core.Config{MsgSize: 32768}, PollInterval: 20000, WorkTotal: 2_000_000}},
		{"pww", []int{2, 4, 8}, &core.PWWConfig{Config: core.Config{MsgSize: 65536}, WorkInterval: 100_000, Reps: 4}},
		{"pingpong", []int{2, 4, 8}, pingpong.Params{MsgSize: 4096, Reps: 8}},
		{"collov", []int{4, 8, 16}, collov.Params{Collective: "allreduce", MsgSize: 16 << 10, Reps: 2, WorkGrid: 8}},
		{"halo", []int{4, 8, 16}, halo.Params{MsgSize: 8 << 10, Iters: 4}},
	}
	for _, g := range grid {
		for _, sys := range transport.Names() {
			for _, n := range g.nodes {
				for _, workers := range []int{0, 4} {
					s := spec.Spec{Method: spec.Method(g.method), System: sys, Nodes: n, SimWorkers: workers, Params: g.params}
					if err := add(s); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	for _, sys := range transport.Names() {
		s := spec.Spec{Method: "polling", System: sys, CPUs: 2, Seed: 7,
			Params: &core.PollingConfig{Config: core.Config{MsgSize: 50_000}, PollInterval: 10_000, WorkTotal: 5_000_000}}
		if err := add(s); err != nil {
			return nil, err
		}
	}

	machinePoll := core.PollingConfig{Config: core.Config{MsgSize: 100_000}, PollInterval: 10_000, WorkTotal: 5_000_000}
	link := func(sys string, edit func(*cluster.LinkConfig)) *platform.Config {
		p := cluster.PlatformPIII500()
		edit(&p.Link)
		return &platform.Config{Transport: sys, Platform: &p}
	}
	for _, sys := range transport.Names() {
		cases = append(cases, corpusCase{
			key:     "machine polling " + sys + " jitter=0.2 seed=3",
			machine: link(sys, func(l *cluster.LinkConfig) { l.Jitter, l.Seed = 0.2, 3 }),
			polling: machinePoll,
		}, corpusCase{
			key: "machine polling " + sys + " backplane=60MB/s nodes=4",
			machine: func() *platform.Config {
				c := link(sys, func(l *cluster.LinkConfig) { l.BackplaneBandwidth = 60 * cluster.MB })
				c.Nodes = 4
				return c
			}(),
			polling: machinePoll,
		})
	}
	cases = append(cases, corpusCase{
		key:     "machine polling tcp loss=0.01 seed=5",
		machine: link("tcp", func(l *cluster.LinkConfig) { l.LossRate, l.Seed = 0.01, 5 }),
		polling: machinePoll,
	})
	return cases, nil
}

// run simulates the case and fingerprints it.
func (c corpusCase) run() (corpusEntry, error) {
	e, err := c.simulate()
	if err != nil {
		return e, fmt.Errorf("%s: %w", c.key, err)
	}
	e.Key = c.key
	return e, nil
}

func (c corpusCase) simulate() (corpusEntry, error) {
	if c.machine != nil {
		return runMachinePolling(*c.machine, c.polling)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	n, m, err := c.spec.Normalized()
	if err != nil {
		return corpusEntry{}, err
	}
	in, err := runpipe.NewPlatform(n)
	if err != nil {
		return corpusEntry{}, err
	}
	defer in.Close()
	res, chk, err := method.Execute(ctx, m, in, method.Config{System: n.System, CPUs: n.CPUs, Params: n.Params}, method.ExecOptions{})
	if err != nil {
		return corpusEntry{}, err
	}
	if err := chk.Err(); err != nil {
		return corpusEntry{}, err
	}
	return fingerprint(in, m.Name(), res, chk.Meter())
}

// runMachinePolling is machine.Run's body with the instance kept, so
// the counters can be read off it after the run.
func runMachinePolling(cfg platform.Config, pc core.PollingConfig) (corpusEntry, error) {
	in, err := platform.New(cfg)
	if err != nil {
		return corpusEntry{}, err
	}
	defer in.Close()
	chk := invariant.Attach(in.Sys, in.Comms, invariant.Options{})
	var res *core.PollingResult
	var rerr error
	err = in.Run(func(p *sim.Proc, c *mpi.Comm) {
		r, err := core.RunPolling(machine.NewSim(p, c, in.Sys.Nodes[c.Rank()]), pc)
		if err != nil {
			rerr = err
		}
		if r != nil && res == nil {
			res = r
		}
	})
	if err = errors.Join(err, rerr); err != nil {
		return corpusEntry{}, err
	}
	chk.Finish()
	if err := chk.Err(); err != nil {
		return corpusEntry{}, err
	}
	return fingerprint(in, "polling", res, chk.Meter())
}

// fingerprint hashes a finished run the way runpipe.Run does and reads
// its work counters.
func fingerprint(in *platform.Instance, name string, res method.Result, meter *mpi.Meter) (corpusEntry, error) {
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
	h, err := runpipe.HashOutcome(name, res, st)
	if err != nil {
		return corpusEntry{}, err
	}
	e := corpusEntry{Hash: h, Packets: st.Packets, Messages: meter.DoneSends}
	for _, env := range in.Sys.Envs {
		e.Events += env.Steps()
	}
	e.Windows, _, _ = in.WindowStats()
	for _, c := range in.Comms {
		started, _ := c.CollStats()
		e.Stages += started
	}
	return e, nil
}
