package sim

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

func TestProcSleep(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var wake []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			wake = append(wake, p.Now())
		}
	})
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if wake[i] != want[i] {
			t.Fatalf("wake = %v, want %v", wake, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var order []string
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, "a")
			p.Sleep(10)
		}
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(5)
		for i := 0; i < 3; i++ {
			order = append(order, "b")
			p.Sleep(10)
		}
	})
	e.Run()
	got := strings.Join(order, "")
	if got != "abababa"[:len(got)] || len(got) != 6 {
		t.Fatalf("interleaving = %q, want ababab", got)
	}
}

func TestProcAwaitEvent(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	ev := e.NewEvent()
	var got any
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		got = p.Await(ev)
		at = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(42)
		ev.Fire("hello")
	})
	e.Run()
	if got != "hello" || at != 42 {
		t.Fatalf("Await got %v at t=%v, want hello at 42", got, at)
	}
}

func TestProcAwaitFiredEventReturnsImmediately(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	ev := e.NewEvent()
	ev.Fire(7)
	var got any
	e.Spawn("w", func(p *Proc) { got = p.Await(ev) })
	e.Run()
	if got != 7 {
		t.Fatalf("got %v, want 7", got)
	}
}

func TestAwaitAnyFirstWins(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	a, b, c := e.NewEvent(), e.NewEvent(), e.NewEvent()
	var idx int
	var val any
	e.Spawn("w", func(p *Proc) { idx, val = p.AwaitAny(a, b, c) })
	e.Spawn("f", func(p *Proc) {
		p.Sleep(5)
		b.Fire("b")
		p.Sleep(5)
		a.Fire("a")
		c.Fire("c")
	})
	e.Run()
	if idx != 1 || val != "b" {
		t.Fatalf("AwaitAny = (%d, %v), want (1, b)", idx, val)
	}
}

func TestAwaitAnyAlreadyFiredLowestIndex(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	a, b := e.NewEvent(), e.NewEvent()
	a.Fire(1)
	b.Fire(2)
	var idx int
	e.Spawn("w", func(p *Proc) { idx, _ = p.AwaitAny(b, a) })
	e.Run()
	if idx != 0 {
		t.Fatalf("idx = %d, want 0 (lowest fired index)", idx)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected process panic to propagate to Run")
		}
		if want := `sim: process "bad" panicked: boom`; r != want {
			t.Fatalf("panic %q, want %q", r, want)
		}
	}()
	e.Run()
}

// TestProcGoexitEndsLoop pins what runtime.Goexit in a process (t.FailNow,
// for one) does: it ends the goroutine running the event loop as well,
// instead of the loop carrying on without the process.
func TestProcGoexitEndsLoop(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	returned, later := false, false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		e.Spawn("quitter", func(p *Proc) {
			p.Sleep(1)
			runtime.Goexit()
		})
		e.Spawn("later", func(p *Proc) {
			p.Sleep(5)
			later = true
		})
		e.Run()
		returned = true
	}()
	<-exited
	if returned || later {
		t.Fatalf("Run returned %v, later process ran %v; want the loop's goroutine ended at t=1", returned, later)
	}
}

// TestProcsOnWindowWorkers spawns processes on the test goroutine and runs
// them on the window engine's workers, as the parallel platform does: each
// process is created on one goroutine, resumed on another, and the
// survivors are killed by Close back on the first.  Under -race this
// checks the coroutine hand-offs between goroutines.
func TestProcsOnWindowWorkers(t *testing.T) {
	envs := partEnvs(4)
	wakes := make([][]Time, len(envs))
	procs := make([]*Proc, 0, 2*len(envs))
	for i, e := range envs {
		procs = append(procs,
			e.Spawn("sleeper", func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.Sleep(Time(i + 3))
					wakes[i] = append(wakes[i], p.Now())
				}
			}),
			e.Spawn("stuck", func(p *Proc) { p.Await(e.NewEvent()) }))
	}
	if err := NewWindows(envs, 2, 2, nil).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, e := range envs {
		e.Close()
	}
	for i, w := range wakes {
		if len(w) != 5 || w[4] != Time(5*(i+3)) {
			t.Errorf("partition %d woke at %v, want 5 wakes every %d", i, w, i+3)
		}
	}
	for _, p := range procs {
		if !p.Done() {
			t.Errorf("process %s still running after Close", p.Name())
		}
	}
}

func TestCloseKillsParkedProcs(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent() // never fires
	p := e.Spawn("stuck", func(p *Proc) { p.Await(ev) })
	e.Run()
	if p.Done() {
		t.Fatal("proc finished without event")
	}
	e.Close()
	if !p.Done() {
		t.Fatal("Close did not terminate parked proc")
	}
	e.Close() // idempotent
}

func TestCloseKillsUndispatchedProc(t *testing.T) {
	e := NewEnv()
	ran := false
	p := e.Spawn("idle", func(p *Proc) { ran = true })
	done := p.DoneEvent()
	e.Close()
	if !p.Done() || !done.Fired() || ran {
		t.Fatalf("after Close: done %v, DoneEvent fired %v, body ran %v; want killed before running", p.Done(), done.Fired(), ran)
	}
}

func TestEventFireTwicePanics(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Fire(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double fire")
		}
	}()
	ev.Fire(nil)
}

func TestOnFireAfterFiredSchedules(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Fire(3)
	got := 0
	ev.OnFire(func(v any) { got = v.(int) })
	if got != 0 {
		t.Fatal("callback ran synchronously")
	}
	e.Run()
	if got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		defer e.Close()
		var log []string
		for i := 0; i < 8; i++ {
			name := string(rune('a' + i))
			d := Time(i%3 + 1)
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(d)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if strings.Join(a, "") != strings.Join(b, "") {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestProcJoin(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	worker := e.Spawn("worker", func(p *Proc) { p.Sleep(100) })
	var joinedAt Time
	e.Spawn("joiner", func(p *Proc) {
		p.Join(worker)
		joinedAt = p.Now()
	})
	e.Run()
	if joinedAt != 100 {
		t.Fatalf("joined at %v, want 100", joinedAt)
	}
}

func TestProcJoinFinished(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	fast := e.Spawn("fast", func(p *Proc) {})
	var ok bool
	e.Spawn("late", func(p *Proc) {
		p.Sleep(50)
		p.Join(fast) // already finished: immediate
		ok = p.Now() == 50
	})
	e.Run()
	if !ok {
		t.Fatal("joining a finished process must not block")
	}
}

func TestProcJoinSelfPanics(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Spawn("narcissist", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected self-join panic")
			}
		}()
		p.Join(p)
	})
	e.Run()
}

func TestDoneEventAfterFinish(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	worker := e.Spawn("w", func(p *Proc) {})
	e.Run()
	if !worker.DoneEvent().Fired() {
		// DoneEvent created after completion must be pre-fired.
		t.Fatal("late DoneEvent not fired")
	}
}

func TestDoneEventMultipleJoiners(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	worker := e.Spawn("w", func(p *Proc) { p.Sleep(10) })
	joined := 0
	for i := 0; i < 3; i++ {
		e.Spawn("j", func(p *Proc) {
			p.Join(worker)
			joined++
		})
	}
	e.Run()
	if joined != 3 {
		t.Fatalf("joined = %d, want 3", joined)
	}
}
