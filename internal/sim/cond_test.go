package sim

import (
	"context"
	"strings"
	"testing"
)

func TestCondWaitBroadcast(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var c Cond
	at := Time(-1)
	e.Spawn("waiter", func(p *Proc) {
		c.Wait(p, c.Gen())
		at = p.Now()
	})
	e.Spawn("broadcaster", func(p *Proc) {
		p.Sleep(42)
		c.Broadcast()
	})
	e.Run()
	if at != 42 || c.Gen() != 1 {
		t.Fatalf("waiter resumed at %v with generation %d, want 42 and 1", at, c.Gen())
	}
}

// TestCondStaleGenerationReturns: a Wait on a generation a Broadcast has
// already ended returns at once, without parking the process or
// scheduling anything, as the endpoints' wait loop relies on when
// Progress itself broadcasts.
func TestCondStaleGenerationReturns(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var c Cond
	done, other := false, false
	e.Spawn("waiter", func(p *Proc) {
		gen := c.Gen()
		c.Broadcast() // no waiters: only the generation moves
		e.Schedule(0, func() { other = true })
		steps, pending, qs := e.Steps(), e.Pending(), e.QueueStats()
		c.Wait(p, gen)
		if other || e.Steps() != steps || e.Pending() != pending || e.QueueStats() != qs {
			t.Errorf("stale Wait parked or scheduled: other event ran %v, steps %d→%d, pending %d→%d",
				other, steps, e.Steps(), pending, e.Pending())
		}
		done = true
	})
	e.Run()
	if !done || !other {
		t.Fatalf("waiter finished %v, other event ran %v; want both", done, other)
	}
}

// TestCondBroadcastParkOrder: Broadcast resumes every waiter parked on
// the current generation at the current instant, in the order they
// parked and after the events already queued for that instant; a
// process that parks on the new generation waits for the next one.
func TestCondBroadcastParkOrder(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var c Cond
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		e.Spawn(name, func(p *Proc) {
			c.Wait(p, c.Gen())
			order = append(order, name+"@"+p.Now().String())
		})
	}
	e.Spawn("broadcaster", func(p *Proc) {
		p.Sleep(10)
		e.Schedule(0, func() { order = append(order, "queued@"+e.Now().String()) })
		c.Broadcast()
		p.Sleep(5)
		c.Broadcast()
	})
	e.Spawn("late", func(p *Proc) {
		p.Sleep(10)
		c.Wait(p, c.Gen()) // runs just after the broadcaster: parks on the new generation
		order = append(order, "late@"+p.Now().String())
	})
	e.Run()
	want := "queued@10ns a@10ns b@10ns c@10ns late@15ns"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("resumed %q, want %q", got, want)
	}
}

// TestCondWaitCycleAllocs pins the Cond at zero allocations once warm: a
// broadcast that readies two waiters, and their next waits, reuse the
// waiter list and the event ring, and a wake-up carries only the
// process.
func TestCondWaitCycleAllocs(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var c Cond
	wakes := 0
	for range 2 {
		e.Spawn("waiter", func(p *Proc) {
			for {
				c.Wait(p, c.Gen())
				wakes++
			}
		})
	}
	e.Run()
	cycle := func() {
		c.Broadcast()
		e.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a warm wait-broadcast cycle allocates %.1f objects, want 0", allocs)
	}
	if wakes != 2*102 {
		t.Errorf("waiters woke %d times, want %d", wakes, 2*102)
	}
}

// TestCondOnWindowWorkers parks processes on a Cond in each partition
// and broadcasts from another process of the same partition, under the
// window engine: a waiter may park on one window party's goroutine and
// resume on another's, and the waiters left parked are killed by Close
// on the test goroutine.  Under -race this checks that hand-off.
func TestCondOnWindowWorkers(t *testing.T) {
	envs := partEnvs(4)
	conds := make([]Cond, len(envs))
	wakes := make([][]Time, len(envs))
	var waiters []*Proc
	for i, e := range envs {
		c := &conds[i]
		for range 2 {
			waiters = append(waiters, e.Spawn("waiter", func(p *Proc) {
				for {
					c.Wait(p, c.Gen())
					wakes[i] = append(wakes[i], p.Now())
				}
			}))
		}
		e.Spawn("broadcaster", func(p *Proc) {
			for range 5 {
				p.Sleep(Time(i + 3))
				c.Broadcast()
			}
		})
	}
	if err := NewWindows(envs, 2, 2, nil).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, e := range envs {
		e.Close()
	}
	for i, w := range wakes {
		if len(w) != 10 || w[9] != Time(5*(i+3)) {
			t.Errorf("partition %d woke at %v, want two wakes every %d, 5 times", i, w, i+3)
		}
	}
	for _, p := range waiters {
		if !p.Done() {
			t.Errorf("waiter %s still parked after Close", p.Name())
		}
	}
}
