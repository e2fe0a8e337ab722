package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"comb/internal/sim"
)

// useRef is Use without the quiet hold: every demand takes the
// grant-and-park path, as Use did before holds existed.
func (c *CPU) useRef(p *sim.Proc, d sim.Time, prio Priority) {
	if d <= 0 {
		return
	}
	g := c.grant(d, prio)
	g.waiter = p
	c.enqueue(g)
	p.Park()
}

// cpuOp is one step of a process in a CPU plan: a Use of d at prio, or,
// when d is zero, a Sleep that lets the core go idle.
type cpuOp struct {
	d     sim.Time
	prio  Priority
	sleep sim.Time
}

// cpuBurst is a group of interrupt demands submitted at one instant.
type cpuBurst struct {
	at sim.Time
	ds []sim.Time
}

type cpuPlan struct {
	cores  int
	procs  [][]cpuOp
	bursts []cpuBurst
}

// cpuOutcome is everything a hold must leave as the grant path would.
type cpuOutcome struct {
	returns [][]sim.Time // per process, the instant each Use returned
	usage   [numPriorities]sim.Time
	steps   uint64
	stepAt  []sim.Time // OnStep timestamps, in order
	held    int        // steps observed from inside a process: held ones
}

func genCPUPlan(rng *sim.Rand) cpuPlan {
	pl := cpuPlan{cores: 1 + rng.Intn(2)}
	for n := 2 + rng.Intn(2); n > 0; n-- {
		var ops []cpuOp
		for k := 5 + rng.Intn(15); k > 0; k-- {
			if rng.Intn(3) == 0 {
				ops = append(ops, cpuOp{sleep: sim.Time(rng.Intn(300))})
				continue
			}
			ops = append(ops, cpuOp{d: sim.Time(1 + rng.Intn(200)), prio: Priority(rng.Intn(int(numPriorities)))})
		}
		pl.procs = append(pl.procs, ops)
	}
	for b := rng.Intn(6); b > 0; b-- {
		burst := cpuBurst{at: sim.Time(rng.Intn(3000))}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			burst.ds = append(burst.ds, sim.Time(1+rng.Intn(100)))
		}
		pl.bursts = append(pl.bursts, burst)
	}
	return pl
}

// runCPUPlan executes pl with use standing in for CPU.Use.
func runCPUPlan(pl cpuPlan, use func(*CPU, *sim.Proc, sim.Time, Priority)) cpuOutcome {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewSMP(env, "cpu", pl.cores)
	out := cpuOutcome{returns: make([][]sim.Time, len(pl.procs))}
	env.OnStep(func(at sim.Time) {
		out.stepAt = append(out.stepAt, at)
		if env.Cur() != nil {
			out.held++
		}
	})
	for _, b := range pl.bursts {
		b := b
		env.Schedule(b.at, func() {
			for _, d := range b.ds {
				cpu.SubmitCall(d, Interrupt, nil, nil)
			}
		})
	}
	for i, ops := range pl.procs {
		i, ops := i, ops
		env.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			for _, op := range ops {
				if op.d == 0 {
					p.Sleep(op.sleep)
					continue
				}
				use(cpu, p, op.d, op.prio)
				out.returns[i] = append(out.returns[i], p.Now())
			}
		})
	}
	env.Run()
	for prio := range out.usage {
		out.usage[prio] = cpu.Usage(Priority(prio))
	}
	out.steps = env.Steps()
	return out
}

// compareToRef runs pl with Use and with useRef, requires identical
// outcomes apart from the held-step count, and returns Use's outcome.
func compareToRef(t *testing.T, pl cpuPlan) cpuOutcome {
	t.Helper()
	got := runCPUPlan(pl, (*CPU).Use)
	want := runCPUPlan(pl, (*CPU).useRef)
	if want.held != 0 {
		t.Fatalf("reference path held %d steps", want.held)
	}
	want.held = got.held
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Use diverges from the grant path:\n got  %+v\n want %+v", got, want)
	}
	return got
}

// TestPropertyQuietHoldMatchesGrantPath drives random plans on one and
// two cores, with processes using the CPU at every priority, sleeping in
// between, and interrupt bursts arriving at random times.
func TestPropertyQuietHoldMatchesGrantPath(t *testing.T) {
	const plans = 300
	ran, held, steps := 0, 0, uint64(0)
	for seed := uint64(1); seed <= plans; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			out := compareToRef(t, genCPUPlan(sim.NewRand(seed*0x9e3779b97f4a7c15)))
			ran, held, steps = ran+1, held+out.held, steps+out.steps
		})
	}
	// Both paths must be exercised: some demands hold, others park.
	if ran == plans && (held == 0 || uint64(held) >= steps) {
		t.Errorf("held %d of %d steps; the plans must exercise both paths", held, steps)
	}
}

func TestQuietHoldRefusedWhenEventDueAtEnd(t *testing.T) {
	// An interrupt arrives exactly when the demand would end.  It was
	// scheduled first, so it runs first: it preempts the user grant with
	// no time left and delays its completion by its own length.
	pl := cpuPlan{
		cores:  1,
		procs:  [][]cpuOp{{{d: 10, prio: User}}},
		bursts: []cpuBurst{{at: 10, ds: []sim.Time{5}}},
	}
	out := compareToRef(t, pl)
	if out.held != 0 {
		t.Errorf("held %d steps with an event due at now+d", out.held)
	}
	if !reflect.DeepEqual(out.returns, [][]sim.Time{{15}}) {
		t.Errorf("Use returned at %v, want [[15]]", out.returns)
	}
}

func TestQuietHoldRefusedWhenGrantQueued(t *testing.T) {
	// Two interrupts at t=0 fill the only core and leave one queued; the
	// process's demand at the same instant must wait behind both.
	pl := cpuPlan{
		cores:  1,
		procs:  [][]cpuOp{{{d: 10, prio: Interrupt}}},
		bursts: []cpuBurst{{at: 0, ds: []sim.Time{5, 7}}},
	}
	out := compareToRef(t, pl)
	if out.held != 0 {
		t.Errorf("held %d steps with a grant queued", out.held)
	}
	if !reflect.DeepEqual(out.returns, [][]sim.Time{{22}}) {
		t.Errorf("Use returned at %v, want [[22]]", out.returns)
	}
}
