package cluster

import (
	"testing"
	"testing/quick"

	"comb/internal/sim"
)

func TestCPUSingleGrant(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	var done sim.Time
	env.Spawn("app", func(p *sim.Proc) {
		cpu.Use(p, 100, User)
		done = p.Now()
	})
	env.Run()
	if done != 100 {
		t.Fatalf("grant finished at %v, want 100", done)
	}
	if cpu.Usage(User) != 100 {
		t.Fatalf("usage = %v, want 100", cpu.Usage(User))
	}
}

func TestCPUFIFOWithinPriority(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	var aDone, bDone sim.Time
	env.Spawn("a", func(p *sim.Proc) {
		cpu.Use(p, 100, User)
		aDone = p.Now()
	})
	env.Spawn("b", func(p *sim.Proc) {
		cpu.Use(p, 50, User)
		bDone = p.Now()
	})
	env.Run()
	if aDone != 100 || bDone != 150 {
		t.Fatalf("aDone=%v bDone=%v, want 100 and 150 (FIFO run-to-completion)", aDone, bDone)
	}
}

func TestCPUPreemption(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	var userDone sim.Time
	env.Spawn("app", func(p *sim.Proc) {
		cpu.Use(p, 1000, User)
		userDone = p.Now()
	})
	// An interrupt arrives mid-work and steals 200 time units.
	var intrDone sim.Time
	env.Schedule(400, func() {
		cpu.SubmitCall(200, Interrupt, func(any) { intrDone = env.Now() }, nil)
	})
	env.Run()
	if intrDone != 600 {
		t.Fatalf("interrupt finished at %v, want 600 (runs immediately)", intrDone)
	}
	if userDone != 1200 {
		t.Fatalf("user work finished at %v, want 1200 (dilated by 200)", userDone)
	}
	if cpu.Usage(User) != 1000 || cpu.Usage(Interrupt) != 200 {
		t.Fatalf("usage user=%v intr=%v", cpu.Usage(User), cpu.Usage(Interrupt))
	}
}

func TestCPUNestedPreemption(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	var userDone, kernDone, intrDone sim.Time
	env.Spawn("app", func(p *sim.Proc) {
		cpu.Use(p, 1000, User)
		userDone = p.Now()
	})
	env.Schedule(100, func() {
		cpu.SubmitCall(500, Kernel, func(any) { kernDone = env.Now() }, nil)
	})
	env.Schedule(200, func() {
		cpu.SubmitCall(100, Interrupt, func(any) { intrDone = env.Now() }, nil)
	})
	env.Run()
	// Timeline: user 0-100, kernel 100-200, interrupt 200-300,
	// kernel 300-700, user 700-1600.
	if intrDone != 300 {
		t.Errorf("interrupt done at %v, want 300", intrDone)
	}
	if kernDone != 700 {
		t.Errorf("kernel done at %v, want 700", kernDone)
	}
	if userDone != 1600 {
		t.Errorf("user done at %v, want 1600", userDone)
	}
}

func TestCPUZeroDemandImmediate(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	doneAt := sim.Time(-1)
	env.Schedule(5, func() {
		cpu.SubmitCall(0, User, func(any) { doneAt = env.Now() }, nil)
	})
	reached := false
	env.Spawn("app", func(p *sim.Proc) {
		cpu.Use(p, 0, Kernel)
		cpu.Use(p, -5, User)
		reached = true
	})
	env.Run()
	if doneAt != 5 || cpu.TotalBusy() != 0 {
		t.Fatalf("zero demand completed at %v using %v of CPU, want at 5 using none", doneAt, cpu.TotalBusy())
	}
	if !reached {
		t.Fatal("non-positive Use must not block")
	}
}

func TestCPUTotalBusy(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	cpu.SubmitCall(10, User, nil, nil)
	cpu.SubmitCall(20, Kernel, nil, nil)
	cpu.SubmitCall(30, Interrupt, nil, nil)
	env.Run()
	if cpu.TotalBusy() != 60 {
		t.Fatalf("TotalBusy = %v, want 60", cpu.TotalBusy())
	}
	if env.Now() != 60 {
		t.Fatalf("clock = %v, want 60 (work serialized)", env.Now())
	}
}

// Property: CPU time is conserved — for any random mix of demands, every
// demand completes, total usage equals the sum of demands, and the finish
// time is at least the total demand (single processor can't exceed 100%).
func TestPropertyCPUConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		env := sim.NewEnv()
		defer env.Close()
		cpu := NewCPU(env, "cpu")
		var total sim.Time
		completed := 0
		n := 0
		for i, r := range raw {
			if n >= 64 {
				break
			}
			n++
			d := sim.Time(r%1000) + 1
			prio := Priority(int(r) % int(numPriorities))
			at := sim.Time((i * 37) % 5000)
			total += d
			env.Schedule(at, func() {
				cpu.SubmitCall(d, prio, func(any) { completed++ }, nil)
			})
		}
		env.Run()
		if completed != n {
			return false
		}
		return cpu.TotalBusy() == total && env.Now() >= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: higher-priority demand submitted while lower-priority work is
// running always finishes first.
func TestPropertyPreemptionDominance(t *testing.T) {
	f := func(a, b uint16) bool {
		env := sim.NewEnv()
		defer env.Close()
		cpu := NewCPU(env, "cpu")
		dLow := sim.Time(a%5000) + 100
		dHigh := sim.Time(b%500) + 1
		var lowDone, highDone sim.Time
		cpu.SubmitCall(dLow, User, func(any) { lowDone = env.Now() }, nil)
		env.Schedule(50, func() {
			cpu.SubmitCall(dHigh, Interrupt, func(any) { highDone = env.Now() }, nil)
		})
		env.Run()
		return highDone == 50+dHigh && lowDone == dLow+dHigh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkDilationMeasuresAvailability(t *testing.T) {
	// The core availability mechanism: a work loop's elapsed time stretches
	// by exactly the higher-priority CPU time injected during it.
	env := sim.NewEnv()
	defer env.Close()
	p := PlatformPIII500()
	node := &Node{ID: 0, Env: env, CPU: NewCPU(env, "cpu"), P: p}
	const iters = 1_000_000
	demand := p.WorkTime(iters)
	// Inject interrupts totalling exactly demand (availability 0.5).
	var injected sim.Time
	for at := sim.Time(0); injected < demand; at += demand / 10 {
		env.Schedule(at, func() { node.CPU.SubmitCall(demand/10, Interrupt, nil, nil) })
		injected += demand / 10
	}
	var elapsed sim.Time
	env.Spawn("worker", func(pr *sim.Proc) {
		start := pr.Now()
		node.Work(pr, iters)
		elapsed = pr.Now() - start
	})
	env.Run()
	avail := float64(demand) / float64(elapsed)
	if avail < 0.45 || avail > 0.55 {
		t.Fatalf("availability = %.3f, want ~0.5 (elapsed %v for demand %v)", avail, elapsed, demand)
	}
}
