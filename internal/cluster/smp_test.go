package cluster

import (
	"testing"
	"testing/quick"

	"comb/internal/sim"
)

func TestSMPParallelGrants(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewSMP(env, "smp", 2)
	var a, b sim.Time
	cpu.SubmitCall(100, User, func(any) { a = env.Now() }, nil)
	cpu.SubmitCall(100, User, func(any) { b = env.Now() }, nil)
	env.Run()
	if a != 100 || b != 100 {
		t.Fatalf("two cores should finish both at 100: a=%v b=%v", a, b)
	}
	if cpu.TotalBusy() != 200 {
		t.Fatalf("TotalBusy = %v", cpu.TotalBusy())
	}
}

func TestSMPThirdGrantQueues(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewSMP(env, "smp", 2)
	var done [3]sim.Time
	for i := 0; i < 3; i++ {
		i := i
		cpu.SubmitCall(100, User, func(any) { done[i] = env.Now() }, nil)
	}
	env.Run()
	if done[0] != 100 || done[1] != 100 || done[2] != 200 {
		t.Fatalf("done = %v, want [100 100 200]", done)
	}
}

func TestSMPInterruptRunsOnIdleCoreWithoutPreempting(t *testing.T) {
	// The crux of the paper's §7 concern: on an SMP node, interrupt load
	// lands on the idle processor and the work loop is NOT dilated.
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewSMP(env, "smp", 2)
	var workDone, intrDone sim.Time
	cpu.SubmitCall(1000, User, func(any) { workDone = env.Now() }, nil)
	env.Schedule(200, func() {
		cpu.SubmitCall(300, Interrupt, func(any) { intrDone = env.Now() }, nil)
	})
	env.Run()
	if workDone != 1000 {
		t.Fatalf("work dilated to %v on SMP; the idle core should absorb the interrupt", workDone)
	}
	if intrDone != 500 {
		t.Fatalf("interrupt finished at %v, want 500", intrDone)
	}
}

func TestSMPPreemptsLowestPriorityWhenSaturated(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewSMP(env, "smp", 2)
	var userDone, kernDone, intrDone sim.Time
	cpu.SubmitCall(1000, User, func(any) { userDone = env.Now() }, nil)
	cpu.SubmitCall(1000, Kernel, func(any) { kernDone = env.Now() }, nil)
	env.Schedule(100, func() {
		cpu.SubmitCall(200, Interrupt, func(any) { intrDone = env.Now() }, nil)
	})
	env.Run()
	// The interrupt must displace the USER grant, not the kernel one.
	if intrDone != 300 {
		t.Errorf("interrupt done at %v, want 300", intrDone)
	}
	if kernDone != 1000 {
		t.Errorf("kernel done at %v, want 1000 (undisturbed)", kernDone)
	}
	if userDone != 1200 {
		t.Errorf("user done at %v, want 1200 (displaced by 200)", userDone)
	}
}

func TestSMPCoresAccessor(t *testing.T) {
	env := sim.NewEnv()
	if NewCPU(env, "c").Cores() != 1 {
		t.Fatal("NewCPU must be single-core")
	}
	if NewSMP(env, "c", 4).Cores() != 4 {
		t.Fatal("Cores() wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero cores must panic")
		}
	}()
	NewSMP(env, "c", 0)
}

// Property: conservation holds on SMP too, and k cores never do more than
// k× wall-clock work.
func TestPropertySMPConservation(t *testing.T) {
	f := func(raw []uint16, coresRaw uint8) bool {
		cores := int(coresRaw%4) + 1
		env := sim.NewEnv()
		defer env.Close()
		cpu := NewSMP(env, "smp", cores)
		var total sim.Time
		completed, n := 0, 0
		for i, r := range raw {
			if n >= 48 {
				break
			}
			n++
			d := sim.Time(r%1000) + 1
			prio := Priority(int(r) % int(numPriorities))
			at := sim.Time((i * 41) % 3000)
			total += d
			env.Schedule(at, func() {
				cpu.SubmitCall(d, prio, func(any) { completed++ }, nil)
			})
		}
		env.Run()
		if completed != n || cpu.TotalBusy() != total {
			return false
		}
		return total <= env.Now()*sim.Time(cores)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSystemWithSMPNodes(t *testing.T) {
	p := PlatformPIII500()
	p.CPUs = 2
	s := NewSystem(2, p)
	defer s.Close()
	for _, n := range s.Nodes {
		if n.CPU.Cores() != 2 {
			t.Fatal("platform CPUs not applied")
		}
	}
}
