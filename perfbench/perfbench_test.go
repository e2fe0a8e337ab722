package main

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"comb/internal/method/collov"
	"comb/internal/method/halo"
)

// TestNamesMatchBenchmarkJSON pins BENCHMARK.json to the harness: the
// same workloads, and the same metric names and units in the same order.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames())
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		var got, want []string
		for _, m := range listed {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range defs {
			want = append(want, d.name+" "+d.unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("BENCHMARK.json %s\n  %v\nharness\n  %v", kind, got, want)
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
}

// TestSeedDeterminism: a seed fixes the ranks spec list and the
// serve-mix request sequence; another seed changes both.
func TestSeedDeterminism(t *testing.T) {
	keys := func(seed uint64) []string {
		var ks []string
		for _, s := range rankSpecs(seed, benchRanks, 2) {
			ks = append(ks, s.Key())
		}
		return ks
	}
	if a, b := keys(7), keys(7); !slices.Equal(a, b) {
		t.Errorf("ranks spec list differs for one seed:\n%v\n%v", a, b)
	}
	if a, b := keys(7), keys(8); slices.Equal(a, b) {
		t.Error("seeds 7 and 8 drew the same ranks spec list")
	}

	w := newServeMix(options{}, benchServe)
	bodies := func(seed uint64) []byte {
		reqs, err := newServeGen(seed, benchServe, w.hot, w.hotBody).next(500)
		if err != nil {
			t.Fatal(err)
		}
		var all [][]byte
		cold := 0
		for _, r := range reqs {
			all = append(all, r.body)
			if !r.hot {
				cold++
			}
		}
		if cold != 500/benchServe.every {
			t.Errorf("seed %d: %d cold requests in 500, want %d", seed, cold, 500/benchServe.every)
		}
		return bytes.Join(all, []byte("\n"))
	}
	if !bytes.Equal(bodies(7), bodies(7)) {
		t.Error("serve-mix sequence differs for one seed")
	}
	if bytes.Equal(bodies(7), bodies(8)) {
		t.Error("seeds 7 and 8 drew the same serve-mix sequence")
	}
}

// tinyWorkloads are each workload at a scale a unit test can afford.
var tinyWorkloads = map[string]func(options) workload{
	"paper-sweep": func(o options) workload { return newPaperSweep(o, []string{"13"}) },
	"ranks": func(o options) workload {
		return newRanks(o, ranksScale{
			systems: []string{"gm"},
			nodes:   []int{4},
			collov:  collov.Params{MsgSize: 4 << 10, Reps: 1, WorkGrid: 4},
			halo:    halo.Params{MsgSize: 2 << 10, Iters: 3, WorkIters: 10_000},
		})
	},
	"serve-mix": func(o options) workload {
		return newServeMix(o, serveScale{round: 20, clients: 2, hot: 4, every: 5})
	},
	"oracle": func(o options) workload { return newOracle(o, []string{"clean-baseline"}, 40) },
}

// TestTinyPasses runs every workload at tiny scale, untraced and traced:
// each gate must pass, and the last output line must carry exactly the
// metrics BENCHMARK.json names for that mode.
func TestTinyPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if got := slices.Sorted(maps.Keys(tinyWorkloads)); !slices.Equal(got, workloadNames()) {
		t.Fatalf("tiny workloads %v, want %v", got, workloadNames())
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{Root: "..", Work: t.TempDir(), Seed: 3, Trace: traced, Procs: 2}
			rep, err := execute(context.Background(), name, tinyWorkloads[name](o), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d gates failed: %s", name, traced, rep.Failed, rep.Attempted,
					strings.Join(rep.Failures, "; "))
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			res := rep.result()
			for _, d := range want {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestCompareRefusesOtherHosts: reports from different hosts are not
// compared.
func TestCompareRefusesOtherHosts(t *testing.T) {
	a := report{Workload: "ranks", Stamp: stamp{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CPUModel: "x"}}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	b.Stamp.NProc = 8
	if err := comparable(a, b); err == nil {
		t.Error("reports from different hosts compared")
	}
}
