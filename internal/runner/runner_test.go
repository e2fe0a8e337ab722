package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"comb/internal/core"
	"comb/internal/method/pingpong"

	// The runner resolves methods by name; register the ones the tests
	// schedule (pingpong registers itself from its package proper).
	_ "comb/internal/method/polling"
	_ "comb/internal/method/pww"
)

// quickPoint is a fast polling point for cache-behaviour tests.
func quickPoint() Point {
	return Point{
		Method: "polling",
		System: "ideal",
		Params: core.PollingConfig{
			Config:       core.Config{MsgSize: 100_000},
			PollInterval: 100_000,
			WorkTotal:    5_000_000,
		},
	}
}

func TestKeyFormat(t *testing.T) {
	// The schema-2 key format is frozen: the method name leads, then the
	// system, then the method's own parameter hash.  Committed cache
	// entries depend on these exact strings.
	pp := Point{Method: "polling", System: "gm", Params: core.PollingConfig{
		Config:       core.Config{MsgSize: 100_000},
		PollInterval: 1_000,
		WorkTotal:    25_000_000,
	}}
	if got, want := pp.Key(), "polling/gm/100000/1000/25000000"; got != want {
		t.Errorf("polling key = %q, want %q", got, want)
	}
	pw := Point{Method: "pww", System: "portals", Params: core.PWWConfig{
		Config:       core.Config{MsgSize: 10_000},
		WorkInterval: 1_000_000,
		Reps:         20,
		TestInWork:   true,
	}}
	if got, want := pw.Key(), "pww/portals/10000/1000000/20/true"; got != want {
		t.Errorf("pww key = %q, want %q", got, want)
	}
}

func TestKeyNormalization(t *testing.T) {
	// Zero fields and explicit defaults must share a key...
	explicit := Point{Method: "polling", System: "gm", Params: core.PollingConfig{
		Config:       core.Config{MsgSize: 100_000, Tag: core.DefaultTag},
		PollInterval: 1_000,
		WorkTotal:    25_000_000,
		QueueDepth:   core.DefaultQueueDepth,
	}}
	zeroed := Point{Method: "polling", System: "gm", Params: core.PollingConfig{
		Config:       core.Config{MsgSize: 100_000},
		PollInterval: 1_000,
		WorkTotal:    25_000_000,
	}}
	if explicit.Key() != zeroed.Key() {
		t.Errorf("explicit defaults key %q != zero-value key %q", explicit.Key(), zeroed.Key())
	}
	// ...while non-default extras must not collide with the classic keys.
	deep := Point{Method: "polling", System: "gm", Params: core.PollingConfig{
		Config:       core.Config{MsgSize: 100_000},
		PollInterval: 1_000,
		WorkTotal:    25_000_000,
		QueueDepth:   16,
	}}
	if deep.Key() == zeroed.Key() {
		t.Error("non-default queue depth must change the key")
	}
	smp := zeroed
	smp.CPUs = 2
	if smp.Key() == zeroed.Key() {
		t.Error("CPU override must change the key")
	}
	// A pointer params value must normalize to the same key as the value.
	ptr := zeroed
	cfg := zeroed.Params.(core.PollingConfig)
	ptr.Params = &cfg
	if ptr.Key() != zeroed.Key() {
		t.Errorf("pointer params key %q != value params key %q", ptr.Key(), zeroed.Key())
	}
}

func TestRunAndMemoHit(t *testing.T) {
	eng := New(Config{Workers: 1})
	ctx := context.Background()
	r1, err := eng.Run(ctx, quickPoint())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(ctx, quickPoint())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second Run must return the memoized pointer")
	}
	st := eng.Stats()
	if st.Runs != 1 || st.MemHits != 1 {
		t.Errorf("stats = %+v, want Runs=1 MemHits=1", st)
	}
}

func TestRunAs(t *testing.T) {
	eng := New(Config{Workers: 1})
	ctx := context.Background()
	pr, err := RunAs[*core.PollingResult](ctx, eng, quickPoint())
	if err != nil || pr == nil || pr.BandwidthMBs <= 0 {
		t.Fatalf("RunAs polling = %+v, %v", pr, err)
	}
	// The wrong result type is an error naming both types, and the point
	// is not simulated again to find out.
	_, err = RunAs[*core.PWWResult](ctx, eng, quickPoint())
	if err == nil || !strings.Contains(err.Error(), "*core.PollingResult") || !strings.Contains(err.Error(), "*core.PWWResult") {
		t.Errorf("mismatched RunAs error = %v", err)
	}
	if st := eng.Stats(); st.Runs != 1 {
		t.Errorf("stats = %+v, want Runs=1", st)
	}
	bad := quickPoint()
	bad.System = "nosuch"
	if _, err := RunAs[*core.PollingResult](ctx, eng, bad); err == nil {
		t.Error("unknown system must fail")
	}
}

func TestInvalidPoints(t *testing.T) {
	eng := New(Config{Workers: 1})
	ctx := context.Background()
	cases := []Point{
		{System: "ideal"}, // no method name
		{Method: "nosuchmethod", System: "ideal", // unregistered method
			Params: core.PollingConfig{Config: core.Config{MsgSize: 1000}, PollInterval: 1000, WorkTotal: 10000}},
		{Method: "polling", System: "ideal", CPUs: -1,
			Params: core.PollingConfig{Config: core.Config{MsgSize: 1000}, PollInterval: 1000, WorkTotal: 10000}},
		{Method: "polling", System: "ideal", // missing PollInterval (no default)
			Params: core.PollingConfig{Config: core.Config{MsgSize: 1000}, WorkTotal: 10000}},
		{Method: "polling", System: "ideal", // wrong params type for the method
			Params: core.PWWConfig{WorkInterval: 1}},
	}
	for i, pt := range cases {
		if _, err := eng.Run(ctx, pt); err == nil {
			t.Errorf("case %d: invalid point must fail", i)
		}
	}
	if _, err := eng.Run(ctx, Point{Method: "polling", System: "nosuch",
		Params: core.PollingConfig{Config: core.Config{MsgSize: 1000}, PollInterval: 1000, WorkTotal: 10000},
	}); err == nil {
		t.Error("unknown system must fail")
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	first := New(Config{Workers: 1, Disk: Open(dir)})
	r1, err := first.Run(ctx, quickPoint())
	if err != nil {
		t.Fatal(err)
	}
	if n := first.Disk().Len(); n != 1 {
		t.Fatalf("cache has %d entries after one run, want 1", n)
	}

	// A fresh engine (fresh memo) over the same directory must answer
	// from disk without simulating.
	second := New(Config{Workers: 1, Disk: Open(dir)})
	r2, err := second.Run(ctx, quickPoint())
	if err != nil {
		t.Fatal(err)
	}
	st := second.Stats()
	if st.DiskHits != 1 || st.Runs != 0 {
		t.Errorf("stats = %+v, want DiskHits=1 Runs=0", st)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Errorf("disk round trip changed the result:\nfresh:  %s\ncached: %s", b1, b2)
	}

	// And the disk hit must have been promoted into the memo.
	if _, err := second.Run(ctx, quickPoint()); err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.MemHits != 1 {
		t.Errorf("stats = %+v, want MemHits=1 after promotion", st)
	}
}

func TestDiskCacheCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	eng := New(Config{Workers: 1, Disk: Open(dir)})
	if _, err := eng.Run(ctx, quickPoint()); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir: %v, %d entries", err, len(ents))
	}
	path := filepath.Join(dir, ents[0].Name())
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Corrupt file → miss → re-simulate → rewrite.
	fresh := New(Config{Workers: 1, Disk: Open(dir)})
	if _, err := fresh.Run(ctx, quickPoint()); err != nil {
		t.Fatalf("corrupt cache entry must fall back to a run: %v", err)
	}
	if st := fresh.Stats(); st.Runs != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want Runs=1 DiskHits=0", st)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("cache file not rewritten after corruption: %v", err)
	}
	if e.Schema != SchemaVersion {
		t.Errorf("rewritten schema = %d, want %d", e.Schema, SchemaVersion)
	}
}

// TestPromotedMethodThroughPipeline: a registered baseline method
// (pingpong) flows through the same engine as the paper's two primary
// methods — typed result extraction, disk cache entry, hit on reload.
func TestPromotedMethodThroughPipeline(t *testing.T) {
	ctx := context.Background()
	pt := Point{Method: "pingpong", System: "ideal", Params: pingpong.Params{MsgSize: 10_000, Reps: 3}}
	dir := t.TempDir()

	first := New(Config{Workers: 1, Disk: Open(dir)})
	r1, err := first.Run(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	pp, ok := As[*pingpong.Result](r1)
	if !ok || pp.BandwidthMBs <= 0 {
		t.Fatalf("pingpong point returned %+v", r1)
	}

	second := New(Config{Workers: 1, Disk: Open(dir)})
	r2, err := second.Run(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.DiskHits != 1 || st.Runs != 0 {
		t.Errorf("expected a disk hit, got stats %+v", st)
	}
	pp2, ok := As[*pingpong.Result](r2)
	if !ok || pp2.BandwidthMBs != pp.BandwidthMBs {
		t.Errorf("cached pingpong result diverged: %+v vs %+v", pp2, pp)
	}
}

func TestDiskCacheSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	c := Open(dir)
	key := quickPoint().Key()

	eng := New(Config{Workers: 1, Disk: c})
	if _, err := eng.Run(context.Background(), quickPoint()); err != nil {
		t.Fatal(err)
	}
	// Rewrite the entry under a foreign schema version.
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	e.Schema = SchemaVersion + 1
	nb, _ := json.Marshal(e)
	if err := os.WriteFile(c.path(key), nb, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(key); ok {
		t.Error("foreign-schema entry must be a miss")
	}
}

func TestCacheClear(t *testing.T) {
	dir := t.TempDir()
	c := Open(dir)
	if n, err := c.Clear(); err != nil || n != 0 {
		t.Errorf("Clear on missing dir = %d, %v", n, err)
	}
	eng := New(Config{Workers: 1, Disk: c})
	if _, err := eng.Run(context.Background(), quickPoint()); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Clear(); err != nil || n != 1 {
		t.Errorf("Clear = %d, %v, want 1, nil", n, err)
	}
	if c.Len() != 0 {
		t.Errorf("cache not empty after Clear")
	}
}

func TestCachePathSanitization(t *testing.T) {
	c := Open("d")
	p := c.path("gm/100000/1000/25000000")
	base := filepath.Base(p)
	if strings.ContainsAny(base, "/\\") || !strings.HasSuffix(base, ".json") {
		t.Errorf("bad cache filename %q", base)
	}
	long := c.path(strings.Repeat("x", 500))
	if len(filepath.Base(long)) > 120 {
		t.Errorf("long key not truncated: %d chars", len(filepath.Base(long)))
	}
	if c.path("a/b") == c.path("a_b") {
		t.Error("distinct keys must not share a file")
	}
}

func TestRunAllParallelAndDedup(t *testing.T) {
	eng := New(Config{Workers: 4})
	sizes := []int{10_000, 50_000, 100_000, 300_000}
	var pts []Point
	for _, size := range sizes {
		pt := Point{Method: "polling", System: "ideal", Params: core.PollingConfig{
			Config:       core.Config{MsgSize: size},
			PollInterval: 100_000,
			WorkTotal:    5_000_000,
		}}
		pts = append(pts, pt, pt) // duplicates must collapse
	}
	if err := eng.RunAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Runs != int64(len(sizes)) {
		t.Errorf("Runs = %d, want %d (duplicates must dedupe)", st.Runs, len(sizes))
	}
}

func TestRunAllProgress(t *testing.T) {
	var progs []Progress
	var eng *Engine
	eng = New(Config{Workers: 2, OnProgress: func(p Progress) { progs = append(progs, p) }})
	var pts []Point
	for _, size := range []int{10_000, 100_000, 300_000} {
		pts = append(pts, Point{Method: "polling", System: "ideal", Params: core.PollingConfig{
			Config:       core.Config{MsgSize: size},
			PollInterval: 100_000,
			WorkTotal:    5_000_000,
		}})
	}
	if err := eng.RunAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if len(progs) != len(pts) {
		t.Fatalf("%d progress calls, want %d", len(progs), len(pts))
	}
	seen := map[int]bool{}
	for _, p := range progs {
		if p.Total != len(pts) {
			t.Errorf("Total = %d, want %d", p.Total, len(pts))
		}
		if p.Done < 1 || p.Done > len(pts) || seen[p.Done] {
			t.Errorf("bad Done sequence: %+v", progs)
			break
		}
		seen[p.Done] = true
		if p.Source != FromRun {
			t.Errorf("first batch source = %q, want %q", p.Source, FromRun)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	eng := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, quickPoint()); err != context.Canceled {
		t.Errorf("pre-cancelled Run = %v, want context.Canceled", err)
	}
	if err := eng.RunAll(ctx, []Point{quickPoint()}); err != context.Canceled {
		t.Errorf("pre-cancelled RunAll = %v, want context.Canceled", err)
	}
}

func TestRunTimeout(t *testing.T) {
	// A huge point under a tiny wall-clock timeout must abort mid-run
	// with DeadlineExceeded, not hang.
	eng := New(Config{Workers: 1, Timeout: time.Millisecond})
	big := Point{Method: "polling", System: "gm", Params: core.PollingConfig{
		Config:       core.Config{MsgSize: 300_000},
		PollInterval: 10,
		WorkTotal:    1_500_000_000,
	}}
	_, err := eng.Run(context.Background(), big)
	if err != context.DeadlineExceeded {
		t.Errorf("timed-out Run = %v, want context.DeadlineExceeded", err)
	}
}

// TestFailedPointReturnsError: a point whose simulation fails returns
// the simulation's own error, and the failure is not cached, so the
// next request for the point simulates it again.
func TestFailedPointReturnsError(t *testing.T) {
	eng := New(Config{Workers: 1})
	pt := Point{Method: "polling", System: "nosuch",
		Params: core.PollingConfig{Config: core.Config{MsgSize: 1000}, PollInterval: 1000, WorkTotal: 10000},
	}
	for i := 0; i < 2; i++ {
		_, err := eng.Run(context.Background(), pt)
		if err == nil {
			t.Fatal("unknown system must fail")
		}
		if !strings.Contains(err.Error(), `"nosuch"`) || strings.Contains(err.Error(), "runner:") {
			t.Errorf("error %q, want the simulation's own error naming the system", err)
		}
	}
	if st := eng.Stats(); st != (Stats{}) {
		t.Errorf("stats after two failed runs = %+v, want none counted", st)
	}
}

func TestCalibrationSharing(t *testing.T) {
	// Two points that differ only in poll interval share a dry-run
	// calibration: the second simulation must reuse the first's measured
	// dry time and still produce exactly the result an uncalibrated
	// engine produces.
	mk := func(interval int64) Point {
		p := quickPoint()
		cfg := p.Params.(core.PollingConfig)
		cfg.PollInterval = interval
		p.Params = cfg
		return p
	}
	ctx := context.Background()
	shared := New(Config{Workers: 1})
	a1, err := RunAs[*core.PollingResult](ctx, shared, mk(100_000))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := RunAs[*core.PollingResult](ctx, shared, mk(200_000))
	if err != nil {
		t.Fatal(err)
	}
	if st := shared.Stats(); st.CalibHits != 1 {
		t.Errorf("stats = %+v, want CalibHits=1", st)
	}
	if a1.DryTime != a2.DryTime {
		t.Errorf("dry times differ across shared calibration: %v vs %v", a1.DryTime, a2.DryTime)
	}
	// A fresh engine simulating the second point cold must agree exactly.
	cold := New(Config{Workers: 1})
	b2, err := RunAs[*core.PollingResult](ctx, cold, mk(200_000))
	if err != nil {
		t.Fatal(err)
	}
	if *a2 != *b2 {
		t.Errorf("calibrated result %+v != cold result %+v", a2, b2)
	}
}
