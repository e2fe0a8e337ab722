package sim

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// partEnvs builds n partition environments.
func partEnvs(n int) []*Env {
	envs := make([]*Env, n)
	for i := range envs {
		envs[i] = NewPartitionEnv(i)
	}
	return envs
}

func TestWindowsRunsAllPartitions(t *testing.T) {
	envs := partEnvs(4)
	var fired [4][]Time
	for i, e := range envs {
		i, e := i, e
		// A little chain per partition so the run spans several windows.
		var step func()
		n := 0
		step = func() {
			fired[i] = append(fired[i], e.Now())
			if n++; n < 5 {
				e.Schedule(3, step)
			}
		}
		e.Schedule(Time(i+1), step)
	}
	w := NewWindows(envs, 2, 4, nil)
	if w.Lookahead() != 2 {
		t.Fatalf("lookahead %v, want 2", w.Lookahead())
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range fired {
		if len(fired[i]) != 5 {
			t.Fatalf("partition %d fired %d events, want 5", i, len(fired[i]))
		}
		want := Time(i + 1)
		for _, at := range fired[i] {
			if at != want {
				t.Fatalf("partition %d fired at %v, want %v", i, at, want)
			}
			want += 3
		}
	}
	adv, _ := w.Stats()
	if adv == 0 {
		t.Fatal("no windows advanced")
	}
}

// TestWindowsWorkerClamp: worker counts outside [1, len(envs)] are
// clamped, and the static partition assignment still covers every env.
func TestWindowsWorkerClamp(t *testing.T) {
	for _, workers := range []int{0, -3, 99} {
		envs := partEnvs(3)
		ran := make([]bool, 3)
		for i, e := range envs {
			i := i
			e.Schedule(1, func() { ran[i] = true })
		}
		w := NewWindows(envs, 10, workers, nil)
		if err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i, ok := range ran {
			if !ok {
				t.Fatalf("workers=%d: partition %d never ran", workers, i)
			}
		}
	}
}

// TestWindowsStallCounting: a lone active partition means nothing can
// overlap, so every advanced window also counts as stalled.
func TestWindowsStallCounting(t *testing.T) {
	envs := partEnvs(2)
	n := 0
	var step func()
	step = func() {
		if n++; n < 4 {
			envs[0].Schedule(5, step)
		}
	}
	envs[0].Schedule(1, step)
	w := NewWindows(envs, 2, 2, nil)
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	adv, stall := w.Stats()
	if adv == 0 || stall != adv {
		t.Fatalf("advanced %d, stalled %d; a single-partition run must stall every window", adv, stall)
	}
}

// TestWindowsMergeInjectsMail: the merge hook runs single-threaded
// between windows and may inject stamped cross-partition events; the
// injected event must execute at its stamped time in the destination.
func TestWindowsMergeInjectsMail(t *testing.T) {
	envs := partEnvs(2)
	type mail struct {
		at       Time
		seq, sub uint64
	}
	var outbox []mail
	// Partition 0 "sends" at t=4: conservative lookahead 10 means the
	// delivery lands at t=14, safely beyond any window that can see it.
	envs[0].Schedule(4, func() {
		seq, sub := envs[0].MailStamp()
		outbox = append(outbox, mail{at: envs[0].Now() + 10, seq: seq, sub: sub})
	})
	var deliveredAt Time
	merge := func() {
		for _, m := range outbox {
			envs[1].ScheduleStamped(m.at, m.seq, m.sub, func(any) { deliveredAt = envs[1].Now() }, nil)
		}
		outbox = outbox[:0]
	}
	w := NewWindows(envs, 10, 2, merge)
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if deliveredAt != 14 {
		t.Fatalf("mailed event delivered at %v, want 14", deliveredAt)
	}
}

// TestWindowsContextCancel: cancellation is observed between windows.
func TestWindowsContextCancel(t *testing.T) {
	envs := partEnvs(2)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	var step func()
	step = func() {
		if n++; n == 3 {
			cancel()
		}
		envs[0].Schedule(5, step) // endless without cancellation
	}
	envs[0].Schedule(1, step)
	w := NewWindows(envs, 2, 2, nil)
	if err := w.Run(ctx); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// TestWindowsRepanics: a panic inside a partition event surfaces from
// Run on the caller's goroutine, like Env.Run re-raising process panics.
func TestWindowsRepanics(t *testing.T) {
	envs := partEnvs(2)
	envs[1].Schedule(1, func() { panic("boom in partition") })
	w := NewWindows(envs, 2, 2, nil)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Run did not re-raise the partition panic")
		}
		if s, ok := p.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("re-raised %v, want the partition panic", p)
		}
	}()
	_ = w.Run(context.Background())
}

func TestNewWindowsRejectsBadConfig(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero lookahead", func() { NewWindows(partEnvs(2), 0, 2, nil) })
	mustPanic("no envs", func() { NewWindows(nil, 5, 2, nil) })
}

// chains gives each partition a chain of n events spaced gap apart from
// t = partition+1, each calling fire(partition), and returns how many
// events each partition ran.
func chains(envs []*Env, n int, gap Time, fire func(part int)) []int {
	ran := make([]int, len(envs))
	for i, e := range envs {
		var step func()
		step = func() {
			fire(i)
			if ran[i]++; ran[i] < n {
				e.Schedule(gap, step)
			}
		}
		e.Schedule(Time(i+1), step)
	}
	return ran
}

// settledGoroutines waits up to a second for the goroutine count to fall
// to want, and returns the last count seen: a goroutine that has called
// its last deferred function may take a moment to be gone.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWindowsLeaveNoGoroutine: every goroutine Run starts has exited by
// the time it returns, whether the partitions drain, a partition on a
// follower or on the caller panics, or the context is cancelled.
func TestWindowsLeaveNoGoroutine(t *testing.T) {
	for _, end := range []string{"drain", "follower panic", "leader panic", "cancel"} {
		t.Run(end, func(t *testing.T) {
			envs := partEnvs(8)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			chains(envs, 20, 3, func(part int) {
				if envs[part].Now() < 30 {
					return
				}
				switch {
				case end == "follower panic" && part == 5, end == "leader panic" && part == 0:
					panic("boom in partition")
				case end == "cancel" && part == 2:
					cancel()
				}
			})
			base := runtime.NumGoroutine()
			func() {
				defer func() {
					if p := recover(); (p != nil) != strings.HasSuffix(end, "panic") {
						t.Errorf("Run panicked with %v", p)
					}
				}()
				if err := NewWindows(envs, 2, 4, nil).Run(ctx); (err != nil) != (end == "cancel") {
					t.Errorf("Run returned %v", err)
				}
			}()
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%d goroutines after Run returned, %d before it started", n, base)
			}
		})
	}
}

// TestWindowsPartiesCappedAtGOMAXPROCS: whatever the worker count, Run
// runs beside the caller at most GOMAXPROCS-1 goroutines, and with one P
// it completes on the caller alone.
func TestWindowsPartiesCappedAtGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2, 3} {
		t.Run(fmt.Sprint("GOMAXPROCS=", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			envs := partEnvs(8)
			seen := make([]int, len(envs)) // most goroutines alive in each partition's events
			ran := chains(envs, 10, 3, func(part int) {
				seen[part] = max(seen[part], runtime.NumGoroutine())
			})
			base := runtime.NumGoroutine()
			if err := NewWindows(envs, 2, 4, nil).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, n := range ran {
				if n != 10 {
					t.Fatalf("partition %d ran %d events, want 10", i, n)
				}
			}
			if extra := slices.Max(seen) - base; extra > procs-1 {
				t.Fatalf("%d goroutines ran beside the caller, want at most %d", extra, procs-1)
			}
		})
	}
}

// TestWindowsParkAndWake: windows and merges that outlast the spin
// budget make parties park on both sides of the barrier, waiting for a
// slow follower, for the caller's share, and for the merge; every event
// still runs at its time.
func TestWindowsParkAndWake(t *testing.T) {
	envs := partEnvs(4)
	var fired [4][]Time
	ran := chains(envs, 6, 3, func(part int) {
		fired[part] = append(fired[part], envs[part].Now())
		// Partitions 0 and 2 belong to the caller, 1 and 3 to a follower
		// when there are two parties; they take turns being slow.
		if (len(fired[part])+part)%2 == 0 {
			time.Sleep(time.Millisecond)
		}
	})
	merges := 0
	merge := func() {
		if merges++; merges%2 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if err := NewWindows(envs, 2, 2, merge).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if ran[i] != 6 {
			t.Fatalf("partition %d ran %d events, want 6", i, ran[i])
		}
		for k, at := range fired[i] {
			if want := Time(i + 1 + 3*k); at != want {
				t.Fatalf("partition %d event %d ran at %v, want %v", i, k, at, want)
			}
		}
	}
}

// TestWindowsSpinOnlyWhilePartiesFit: a waiting party may spin only
// while the parties of every Run in progress fit on the Ps.
func TestWindowsSpinOnlyWhilePartiesFit(t *testing.T) {
	b := newBarrier(2, 2)
	for _, tc := range []struct {
		live int64
		want bool
	}{{2, true}, {3, false}, {4, false}} {
		liveParties.Add(tc.live)
		got := b.spins()
		liveParties.Add(-tc.live)
		if got != tc.want {
			t.Errorf("%d live parties on 2 Ps: spins %v, want %v", tc.live, got, tc.want)
		}
	}
}

// TestWindowsConcurrentRuns: Runs in progress at once, whose parties
// outnumber the Ps and so park without spinning, each run every event
// of their own partitions at its time.
func TestWindowsConcurrentRuns(t *testing.T) {
	const runs, events = 3, 30
	fired := make([][8][]Time, runs)
	errs := make(chan error, runs)
	for r := range runs {
		envs := partEnvs(8)
		chains(envs, events, 3, func(part int) {
			fired[r][part] = append(fired[r][part], envs[part].Now())
		})
		go func() { errs <- NewWindows(envs, 2, 4, nil).Run(context.Background()) }()
	}
	for range runs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for r := range fired {
		for i, at := range fired[r] {
			if len(at) != events {
				t.Fatalf("run %d partition %d ran %d events, want %d", r, i, len(at), events)
			}
			for k := range at {
				if want := Time(i + 1 + 3*k); at[k] != want {
					t.Fatalf("run %d partition %d event %d ran at %v, want %v", r, i, k, at[k], want)
				}
			}
		}
	}
	if n := liveParties.Load(); n != 0 {
		t.Fatalf("%d parties still counted live after every Run returned", n)
	}
}

// BenchmarkWindowsRound times one window round: two partitions, one
// trivial event each per window, two workers.  With events this cheap,
// ns/op is the per-window cost of the engine's synchronization.
func BenchmarkWindowsRound(b *testing.B) {
	envs := partEnvs(2)
	for _, e := range envs {
		n := 0
		var step func()
		step = func() {
			if n++; n < b.N {
				e.Schedule(2, step)
			}
		}
		e.Schedule(1, step)
	}
	w := NewWindows(envs, 2, 2, nil)
	b.ResetTimer()
	if err := w.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	if adv, _ := w.Stats(); adv != uint64(b.N) {
		b.Fatalf("%d windows for %d events per partition", adv, b.N)
	}
}
