package scenario

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"comb/internal/core"
	"comb/internal/faultinject"
	"comb/internal/method/pingpong"
	"comb/internal/runner"
	"comb/internal/spec"
)

// The tests below are the oracle's deliberately-broken fixtures: each
// builds a synthetic matrix whose doctored results violate exactly one
// relation, then proves the relation fires with a replay line — and
// that the adjacent, physically-plausible matrix stays silent.  No
// simulation runs; cells carry hand-built result envelopes.

// relation fetches a registered relation by name.
func relation(t *testing.T, name string) Relation {
	t.Helper()
	for _, r := range Relations() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("relation %q not registered", name)
	return Relation{}
}

// check runs one named relation over a synthetic matrix.
func check(t *testing.T, name string, m *Matrix) []Violation {
	t.Helper()
	return relation(t, name).Check(context.Background(), m)
}

func wireFaults(t *testing.T, s string) *faultinject.Spec {
	t.Helper()
	fs, err := faultinject.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	fs.Seed = 9
	return &fs
}

// pwwCell builds a synthetic post-work-wait cell.
func pwwCell(wl, sys string, faults *faultinject.Spec, cfg core.PWWConfig, r *core.PWWResult) *Cell {
	r.MsgSize = cfg.MsgSize
	return &Cell{
		Pack:     "broken",
		Workload: wl,
		System:   sys,
		Faulted:  faults != nil,
		Spec:     spec.Spec{Method: "pww", System: sys, Seed: 9, Params: cfg, Faults: faults},
		Key:      fmt.Sprintf("pww/%s/%s/faulted=%v", sys, wl, faults != nil),
		Result:   &runner.Result{Method: "pww", Value: r},
	}
}

func pingpongCell(wl, sys string, faults *faultinject.Spec, bw float64) *Cell {
	return &Cell{
		Pack:     "broken",
		Workload: wl,
		System:   sys,
		Faulted:  faults != nil,
		Spec:     spec.Spec{Method: "pingpong", System: sys, Seed: 9, Params: pingpong.Params{}, Faults: faults},
		Key:      fmt.Sprintf("pingpong/%s/%s/faulted=%v", sys, wl, faults != nil),
		Result:   &runner.Result{Method: "pingpong", Value: &pingpong.Result{BandwidthMBs: bw}},
	}
}

func pollingCell(wl, sys string, faults *faultinject.Spec, avail, bw float64) *Cell {
	return &Cell{
		Pack:     "broken",
		Workload: wl,
		System:   sys,
		Faulted:  faults != nil,
		Spec:     spec.Spec{Method: "polling", System: sys, Seed: 9, Params: core.PollingConfig{}, Faults: faults},
		Key:      fmt.Sprintf("polling/%s/%s/faulted=%v", sys, wl, faults != nil),
		Result:   &runner.Result{Method: "polling", Value: &core.PollingResult{Availability: avail, BandwidthMBs: bw}},
	}
}

func synthetic(cells ...*Cell) *Matrix {
	return &Matrix{Pack: &Pack{Name: "broken"}, Cells: cells}
}

func TestRelationCatalog(t *testing.T) {
	rels := Relations()
	if len(rels) < 6 {
		t.Fatalf("relation catalog has %d relations, want >= 6", len(rels))
	}
	var names []string
	for _, r := range rels {
		names = append(names, r.Name)
		if r.Describe == "" {
			t.Errorf("relation %q has no description", r.Name)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Relations() not sorted: %v", names)
	}
	want := []string{
		"collov/overlap-monotone",
		"faults/availability-monotone",
		"faults/bandwidth-monotone",
		"ideal/bandwidth-dominates",
		"matrix/complete",
		"matrix/keys-unique",
		"offload/wait-advantage",
		"pww/wait-monotone-gm",
		"replay/deterministic",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("relation names = %v, want %v", names, want)
	}
}

func TestRegisterRelationRejects(t *testing.T) {
	mustPanic := func(name string, r Relation) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RegisterRelation did not panic", name)
			}
		}()
		RegisterRelation(r)
	}
	mustPanic("empty", Relation{})
	mustPanic("duplicate", Relation{
		Name:  "matrix/complete",
		Check: func(context.Context, *Matrix) []Violation { return nil },
	})
}

func TestCompleteFiresOnErroredCell(t *testing.T) {
	bad := pwwCell("w", "gm", nil, core.PWWConfig{}, &core.PWWResult{})
	bad.Result = nil
	bad.Err = errors.New("simulated deadlock")
	m := synthetic(bad)
	vs := check(t, "matrix/complete", m)
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "simulated deadlock") {
		t.Fatalf("matrix/complete = %v", vs)
	}
	if !strings.Contains(vs[0].String(), "replay with `comb run -spec '{") {
		t.Fatalf("violation lacks replay line: %s", vs[0])
	}
	// Every other relation must skip the errored cell: the failure is
	// reported once, not once per relation.
	all := Evaluate(context.Background(), m)
	if len(all) != 1 {
		t.Fatalf("errored cell reported %d times: %v", len(all), all)
	}
}

func TestKeysUniqueFires(t *testing.T) {
	a := pwwCell("w1", "gm", nil, core.PWWConfig{}, &core.PWWResult{})
	b := pwwCell("w2", "gm", nil, core.PWWConfig{}, &core.PWWResult{})
	b.Key = a.Key
	vs := check(t, "matrix/keys-unique", synthetic(a, b))
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "collide") {
		t.Fatalf("matrix/keys-unique = %v", vs)
	}
	b.Key = "pww/gm/w2/distinct"
	if vs := check(t, "matrix/keys-unique", synthetic(a, b)); len(vs) != 0 {
		t.Fatalf("distinct keys flagged: %v", vs)
	}
}

func TestAvailabilityMonotoneFires(t *testing.T) {
	cfg := core.PWWConfig{Config: core.Config{MsgSize: 1024}, WorkInterval: 1000, Reps: 4}
	clean := pwwCell("w", "tcp", nil, cfg, &core.PWWResult{Availability: 0.50})
	hot := pwwCell("w", "tcp", wireFaults(t, "drop=0.1"), cfg, &core.PWWResult{Availability: 0.60})
	vs := check(t, "faults/availability-monotone", synthetic(clean, hot))
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "exceeds clean") {
		t.Fatalf("availability-monotone = %v", vs)
	}

	// Sub-tolerance alignment wins stay silent (relTol).
	mild := pwwCell("w", "tcp", wireFaults(t, "drop=0.1"), cfg, &core.PWWResult{Availability: 0.50 * (1 + relTol/2)})
	if vs := check(t, "faults/availability-monotone", synthetic(clean, mild)); len(vs) != 0 {
		t.Fatalf("sub-tolerance rise flagged: %v", vs)
	}

	// Jitter faults perturb the dry calibration: excluded however large
	// the rise.
	jit := pwwCell("w", "tcp", wireFaults(t, "jitter=0.5:100us"), cfg, &core.PWWResult{Availability: 0.95})
	if vs := check(t, "faults/availability-monotone", synthetic(clean, jit)); len(vs) != 0 {
		t.Fatalf("jitter fault not excluded: %v", vs)
	}
}

func TestBandwidthMonotoneFires(t *testing.T) {
	cfg := core.PWWConfig{Config: core.Config{MsgSize: 1024}, WorkInterval: 1000, Reps: 4}
	cleanPWW := pwwCell("w", "tcp", nil, cfg, &core.PWWResult{BandwidthMBs: 20})
	hotPWW := pwwCell("w", "tcp", wireFaults(t, "drop=0.1"), cfg, &core.PWWResult{BandwidthMBs: 30})
	cleanPP := pingpongCell("pp", "gm", nil, 40)
	hotPP := pingpongCell("pp", "gm", wireFaults(t, "drop=0.1"), 50)
	vs := check(t, "faults/bandwidth-monotone", synthetic(cleanPWW, hotPWW, cleanPP, hotPP))
	if len(vs) != 2 {
		t.Fatalf("bandwidth-monotone should fire for pww and pingpong, got %v", vs)
	}

	// Polling's bandwidth is stream-coupled, not delivery-bound: however
	// blatantly a faulted polling cell "improves", the relation is out of
	// scope.
	cleanPoll := pollingCell("poll", "tcp", nil, 0.5, 10)
	hotPoll := pollingCell("poll", "tcp", wireFaults(t, "drop=0.1"), 0.9, 99)
	if vs := check(t, "faults/bandwidth-monotone", synthetic(cleanPoll, hotPoll)); len(vs) != 0 {
		t.Fatalf("polling not excluded: %v", vs)
	}
}

func TestWaitMonotoneGMFires(t *testing.T) {
	axis := core.PWWConfig{WorkInterval: 1000, Reps: 4}
	small, big := axis, axis
	small.MsgSize, big.MsgSize = 1024, 4096
	a := pwwCell("pww-1k", "gm", nil, small, &core.PWWResult{AvgWait: 40 * time.Microsecond})
	b := pwwCell("pww-4k", "gm", nil, big, &core.PWWResult{AvgWait: 10 * time.Microsecond})
	vs := check(t, "pww/wait-monotone-gm", synthetic(a, b))
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "pww-4k") {
		t.Fatalf("wait-monotone-gm = %v", vs)
	}

	// Monotone waits pass; other transports are out of scope.
	b.Result = &runner.Result{Method: "pww", Value: &core.PWWResult{MsgSize: 4096, AvgWait: 80 * time.Microsecond}}
	if vs := check(t, "pww/wait-monotone-gm", synthetic(a, b)); len(vs) != 0 {
		t.Fatalf("monotone waits flagged: %v", vs)
	}
	c := pwwCell("pww-1k", "portals", nil, small, &core.PWWResult{AvgWait: 40 * time.Microsecond})
	d := pwwCell("pww-4k", "portals", nil, big, &core.PWWResult{AvgWait: 10 * time.Microsecond})
	if vs := check(t, "pww/wait-monotone-gm", synthetic(c, d)); len(vs) != 0 {
		t.Fatalf("non-gm cells in scope: %v", vs)
	}

	// Cells differing in more than MsgSize never compare.
	e := pwwCell("pww-4k-batched", "gm", nil, core.PWWConfig{Config: core.Config{MsgSize: 4096}, WorkInterval: 1000, Reps: 4, BatchSize: 8}, &core.PWWResult{AvgWait: time.Microsecond})
	if vs := check(t, "pww/wait-monotone-gm", synthetic(a, e)); len(vs) != 0 {
		t.Fatalf("cross-axis cells compared: %v", vs)
	}
}

func TestOffloadWaitAdvantageFires(t *testing.T) {
	cfg := core.PWWConfig{Config: core.Config{MsgSize: 1024}, WorkInterval: 1000, Reps: 4}
	gm := pwwCell("w", "gm", nil, cfg, &core.PWWResult{AvgWait: 10 * time.Microsecond})
	slow := pwwCell("w", "portals", nil, cfg, &core.PWWResult{AvgWait: 25 * time.Microsecond})
	vs := check(t, "offload/wait-advantage", synthetic(gm, slow))
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "offload lost its advantage") {
		t.Fatalf("offload/wait-advantage = %v", vs)
	}
	fast := pwwCell("w", "portals", nil, cfg, &core.PWWResult{AvgWait: 5 * time.Microsecond})
	if vs := check(t, "offload/wait-advantage", synthetic(gm, fast)); len(vs) != 0 {
		t.Fatalf("faster portals flagged: %v", vs)
	}
}

func TestIdealDominatesFires(t *testing.T) {
	cfg := core.PWWConfig{Config: core.Config{MsgSize: 1024}, WorkInterval: 1000, Reps: 4}
	ideal := pwwCell("w", "ideal", nil, cfg, &core.PWWResult{BandwidthMBs: 90})
	hotGM := pwwCell("w", "gm", wireFaults(t, "drop=0.1"), cfg, &core.PWWResult{BandwidthMBs: 100})
	vs := check(t, "ideal/bandwidth-dominates", synthetic(ideal, hotGM))
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "above clean ideal") {
		t.Fatalf("ideal/bandwidth-dominates = %v", vs)
	}

	// emp runs its own jumbo-frame link: out of scope however fast.
	hotEMP := pwwCell("w", "emp", wireFaults(t, "drop=0.1"), cfg, &core.PWWResult{BandwidthMBs: 120})
	if vs := check(t, "ideal/bandwidth-dominates", synthetic(ideal, hotEMP)); len(vs) != 0 {
		t.Fatalf("non-default-link transport compared against ideal: %v", vs)
	}

	slower := pwwCell("w", "gm", wireFaults(t, "drop=0.1"), cfg, &core.PWWResult{BandwidthMBs: 80})
	if vs := check(t, "ideal/bandwidth-dominates", synthetic(ideal, slower)); len(vs) != 0 {
		t.Fatalf("dominated transport flagged: %v", vs)
	}
}

func TestReplayDeterministicFires(t *testing.T) {
	cfg := core.PWWConfig{Config: core.Config{MsgSize: 1024}, WorkInterval: 1000, Reps: 4}
	c := pwwCell("w", "ideal", nil, cfg, &core.PWWResult{BandwidthMBs: 90})
	h, err := HashEnvelope(c.Result)
	if err != nil {
		t.Fatal(err)
	}
	c.Hash = h

	// A cold rerun that reproduces the envelope passes.
	m := synthetic(c)
	m.rerun = func(context.Context, spec.Spec) (*runner.Result, error) {
		return &runner.Result{Method: "pww", Value: &core.PWWResult{MsgSize: 1024, BandwidthMBs: 90}}, nil
	}
	if vs := check(t, "replay/deterministic", m); len(vs) != 0 {
		t.Fatalf("identical cold rerun flagged: %v", vs)
	}

	// A cold rerun that drifts — hidden state, a cache returning a result
	// the key does not own — fires with both hashes in the report.
	m.rerun = func(context.Context, spec.Spec) (*runner.Result, error) {
		return &runner.Result{Method: "pww", Value: &core.PWWResult{MsgSize: 1024, BandwidthMBs: 91}}, nil
	}
	vs := check(t, "replay/deterministic", m)
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, c.Hash) {
		t.Fatalf("replay/deterministic = %v", vs)
	}

	// A failing cold rerun is also a violation, not a skip.
	m.rerun = func(context.Context, spec.Spec) (*runner.Result, error) {
		return nil, errors.New("cold engine exploded")
	}
	vs = check(t, "replay/deterministic", m)
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "cold engine exploded") {
		t.Fatalf("replay/deterministic on rerun error = %v", vs)
	}
}
