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

// completeRef is complete without the in-place hand-off: every waiting
// process or callback is woken by a scheduled zero-delay event, as
// complete did before hand-offs existed.
func (c *CPU) completeRef(a any) {
	g := a.(*cpuGrant)
	core := &c.cores[g.core]
	c.usage[g.prio] += c.env.Now() - core.startedAt
	core.running = nil
	switch {
	case g.waiter != nil:
		c.env.Ready(g.waiter, nil)
	case g.done != nil:
		g.done.Fire(nil)
	case g.fn != nil:
		c.env.ScheduleCall(0, g.fn, g.arg)
	}
	c.release(g)
	c.dispatch()
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

// cpuOutcome is everything a hold or a hand-off must leave as the
// grant path would.
type cpuOutcome struct {
	returns [][]sim.Time // per process, the instant each Use returned
	usage   [numPriorities]sim.Time
	steps   uint64
	stepAt  []sim.Time // OnStep timestamps, in order
	held    int        // steps observed from inside a process: held ones
	handed  int        // Use returns handed off in place by a completion
	woken   int        // completions with a process or callback to wake
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

// cpuRun selects the paths a plan runs on.
type cpuRun struct {
	// use stands in for CPU.Use; nil runs every process's ops as a
	// callback chain through CPU.UseCall instead (useChain).
	use func(*CPU, *sim.Proc, sim.Time, Priority)
	// refComplete retires grants with completeRef instead of complete.
	refComplete bool
}

// runCPUPlan executes pl on the paths r selects.
func runCPUPlan(pl cpuPlan, r cpuRun) cpuOutcome {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewSMP(env, "cpu", pl.cores)
	out := cpuOutcome{returns: make([][]sim.Time, len(pl.procs))}
	completing := false
	cpu.completeFn = func(a any) {
		if g := a.(*cpuGrant); g.waiter != nil || g.fn != nil {
			out.woken++
		}
		completing = true
		if r.refComplete {
			cpu.completeRef(a)
		} else {
			cpu.complete(a)
		}
		completing = false
	}
	ret := func(i int) {
		out.returns[i] = append(out.returns[i], env.Now())
		if completing {
			out.handed++ // the first return inside a completion is its hand-off
			completing = false
		}
	}
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
		if r.use == nil {
			useChain(cpu, ops, func() { ret(i) })
			continue
		}
		env.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			for _, op := range ops {
				if op.d == 0 {
					p.Sleep(op.sleep)
					continue
				}
				r.use(cpu, p, op.d, op.prio)
				ret(i)
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

// useChain runs ops as a callback chain: each Use is a CPU.UseCall and
// each sleep a scheduled continuation, and ret runs where the process
// would see Use return.  The chain starts from a zero-delay event where
// Spawn schedules a process's first activation.
func useChain(cpu *CPU, ops []cpuOp, ret func()) {
	env := cpu.env
	k := 0
	var step func(any)
	step = func(any) {
		for ; k < len(ops); k++ {
			op := ops[k]
			if op.d == 0 {
				k++
				env.ScheduleCall(op.sleep, step, nil)
				return
			}
			if !cpu.UseCall(op.d, op.prio, func(any) { ret(); k++; step(nil) }, nil) {
				return
			}
			ret()
		}
	}
	env.ScheduleCall(0, step, nil)
}

// compareToRef runs pl with Use and complete and with useRef and
// completeRef, requires identical outcomes apart from the counts of held
// steps, hand-offs and grant wake-ups, and returns Use's outcome.
func compareToRef(t *testing.T, pl cpuPlan) cpuOutcome {
	t.Helper()
	got := runCPUPlan(pl, cpuRun{use: (*CPU).Use})
	want := runCPUPlan(pl, cpuRun{use: (*CPU).useRef, refComplete: true})
	if want.held != 0 || want.handed != 0 {
		t.Fatalf("reference path held %d steps and handed off %d", want.held, want.handed)
	}
	want.held, want.handed, want.woken = got.held, got.handed, got.woken
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

// TestPropertyCallbackUseMatchesProcessUse runs every plan's processes
// as UseCall callback chains and as Use processes: returns, usage, steps
// and OnStep timestamps must be identical.
func TestPropertyCallbackUseMatchesProcessUse(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			pl := genCPUPlan(sim.NewRand(seed * 0x9e3779b97f4a7c15))
			got := runCPUPlan(pl, cpuRun{})
			want := runCPUPlan(pl, cpuRun{use: (*CPU).Use})
			got.held, got.handed, want.held, want.handed = 0, 0, 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("UseCall chains diverge from Use:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestPropertyInPlaceCompleteMatchesScheduled runs every plan with
// complete and with completeRef, for processes and for callback chains:
// returns, usage, steps and OnStep timestamps must be identical, and
// some but not all wake-ups must have been handed off in place.
func TestPropertyInPlaceCompleteMatchesScheduled(t *testing.T) {
	const plans = 300
	for _, paths := range []struct {
		name string
		use  func(*CPU, *sim.Proc, sim.Time, Priority)
	}{{"process", (*CPU).Use}, {"chain", nil}} {
		ran, handed, woken := 0, 0, 0
		for seed := uint64(1); seed <= plans; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", paths.name, seed), func(t *testing.T) {
				pl := genCPUPlan(sim.NewRand(seed * 0x9e3779b97f4a7c15))
				got := runCPUPlan(pl, cpuRun{use: paths.use})
				want := runCPUPlan(pl, cpuRun{use: paths.use, refComplete: true})
				if want.handed != 0 {
					t.Fatalf("completeRef handed off %d returns in place", want.handed)
				}
				ran, handed, woken = ran+1, handed+got.handed, woken+got.woken
				want.handed = got.handed
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("in-place hand-offs diverge from scheduled ones:\n got  %+v\n want %+v", got, want)
				}
			})
		}
		if ran == plans && (handed == 0 || handed >= woken) {
			t.Errorf("%s: handed off %d of %d wake-ups in place; the plans must exercise both paths", paths.name, handed, woken)
		}
	}
}
