package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"comb/internal/sim"
)

// The reference grant path is the CPU as it was before quiet holds,
// in-place hand-offs and re-keyed core slots: every demand parks, every
// completion wakes its waiter with a scheduled event, and every started
// grant arms a completion afresh, which a preemption cancels.  It runs
// on slots of its own, one per core, which it disarms on preemption and
// arms again on start: the cancel-and-push order of a timer.

// cpuRef is the reference path for one CPU.
type cpuRef struct {
	c     *CPU
	slots sim.Slot // the first of one slot per core
	// dispatch makes completions dispatch on the reference path too;
	// otherwise complete differs from CPU.complete only in waking
	// every waiter with a scheduled event.
	dispatch bool
	// preempts counts preemptions, and zeroLength those of a grant
	// started with no time left, whose completion was armed at zero
	// delay.
	preempts, zeroLength int
}

func newCPURef(c *CPU, dispatch bool) *cpuRef {
	return &cpuRef{c: c, slots: c.env.NewSlots(len(c.cores)), dispatch: dispatch}
}

// use is Use without the quiet hold: every demand takes the
// grant-and-park path, as Use did before holds existed.
func (r *cpuRef) use(p *sim.Proc, d sim.Time, prio Priority) {
	if d <= 0 {
		return
	}
	g := r.c.grant(d, prio)
	g.waiter = p
	r.enqueue(g)
	p.Park()
}

// submit is SubmitCall of a positive fire-and-forget demand.
func (r *cpuRef) submit(d sim.Time, prio Priority) {
	r.enqueue(r.c.grant(d, prio))
}

func (r *cpuRef) enqueue(g *cpuGrant) {
	r.c.queues[g.prio].pushBack(g)
	r.dispatchAll()
}

// dispatchAll is CPU.dispatch with start and preempt.
func (r *cpuRef) dispatchAll() {
	c := r.c
	for {
		want := c.highestWaitingPrio()
		if want < 0 {
			return
		}
		if idle := c.idleCore(); idle >= 0 {
			r.start(idle, c.nextWaiting())
			continue
		}
		victim := -1
		for i := range c.cores {
			g := c.cores[i].running
			if g.prio >= want {
				continue
			}
			if victim < 0 || g.prio < c.cores[victim].running.prio ||
				(g.prio == c.cores[victim].running.prio && c.cores[i].startedAt >= c.cores[victim].startedAt) {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		r.preempt(victim)
		r.start(victim, c.nextWaiting())
	}
}

// start runs g on core i and arms its completion in the core's
// reference slot, which is disarmed: a grant with no time left is armed
// at zero delay.
func (r *cpuRef) start(i int, g *cpuGrant) {
	core := &r.c.cores[i]
	core.running = g
	core.startedAt = r.c.env.Now()
	g.core = int32(i)
	r.c.env.Arm(r.slots+sim.Slot(i), g.remaining, r.c.completeFn, g)
}

// preempt is CPU.preempt that disarms the core's reference slot.
func (r *cpuRef) preempt(i int) {
	c := r.c
	core := &c.cores[i]
	g := core.running
	r.preempts++
	if g.remaining == 0 {
		r.zeroLength++
	}
	elapsed := c.env.Now() - core.startedAt
	g.remaining -= elapsed
	c.usage[g.prio] += elapsed
	c.env.Disarm(r.slots + sim.Slot(i))
	core.running = nil
	g.core = -1
	c.queues[g.prio].pushFront(g)
}

// complete is CPU.complete without the in-place hand-off: every waiting
// process or callback is woken by a scheduled zero-delay event, as
// complete did before hand-offs existed.
func (r *cpuRef) complete(a any) {
	c := r.c
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
	if r.dispatch {
		r.dispatchAll()
	} else {
		c.dispatch()
	}
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
	queue   sim.QueueStats
	// The reference path's preemptions, and those of a zero-length
	// completion (cpuRef.preempts, zeroLength); 0 on the program path.
	preempts, zeroLength int
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
	// ref runs the whole plan on the reference path: processes use
	// cpuRef.use, the interrupt bursts cpuRef.submit, and completions
	// dispatch on it, so no core slot of the CPU is armed.
	ref bool
	// refComplete retires grants with cpuRef.complete, which dispatches
	// on the program path, instead of CPU.complete.
	refComplete bool
}

// runCPUPlan executes pl on the paths r selects.
func runCPUPlan(pl cpuPlan, r cpuRun) cpuOutcome {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewSMP(env, "cpu", pl.cores)
	ref := newCPURef(cpu, r.ref)
	if r.ref {
		r.use = func(_ *CPU, p *sim.Proc, d sim.Time, prio Priority) { ref.use(p, d, prio) }
	}
	out := cpuOutcome{returns: make([][]sim.Time, len(pl.procs))}
	completing := false
	cpu.completeFn = func(a any) {
		if g := a.(*cpuGrant); g.waiter != nil || g.fn != nil {
			out.woken++
		}
		completing = true
		if r.ref || r.refComplete {
			ref.complete(a)
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
				if r.ref {
					ref.submit(d, Interrupt)
				} else {
					cpu.SubmitCall(d, Interrupt, nil, nil)
				}
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
	out.queue = env.QueueStats()
	out.preempts, out.zeroLength = ref.preempts, ref.zeroLength
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

// compareToRef runs pl with Use and complete and on the reference path,
// requires identical outcomes apart from the counts of held steps,
// hand-offs, grant wake-ups, preemptions and queue work, and returns
// both outcomes.
func compareToRef(t *testing.T, pl cpuPlan) (got, want cpuOutcome) {
	t.Helper()
	got = runCPUPlan(pl, cpuRun{use: (*CPU).Use})
	want = runCPUPlan(pl, cpuRun{ref: true})
	if want.held != 0 || want.handed != 0 || want.queue.Rekeys != 0 {
		t.Fatalf("reference path held %d steps, handed off %d and re-keyed %d slots", want.held, want.handed, want.queue.Rekeys)
	}
	g, w := got, want
	w.held, w.handed, w.woken, w.queue = g.held, g.handed, g.woken, g.queue
	w.preempts, w.zeroLength = g.preempts, g.zeroLength
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("Use diverges from the grant path:\n got  %+v\n want %+v", g, w)
	}
	return got, want
}

// TestPropertyQuietHoldMatchesGrantPath drives random plans on one and
// two cores, with processes using the CPU at every priority, sleeping in
// between, and interrupt bursts arriving at random times.  The reference
// disarms a preempted grant's completion and arms the next one afresh,
// so the plans also compare the core slots, re-keyed in place on
// preemption, with the cancel-and-push order.
func TestPropertyQuietHoldMatchesGrantPath(t *testing.T) {
	const plans = 300
	ran, held, steps := 0, 0, uint64(0)
	var rekeys uint64
	preempts := 0
	for seed := uint64(1); seed <= plans; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			got, want := compareToRef(t, genCPUPlan(sim.NewRand(seed*0x9e3779b97f4a7c15)))
			ran, held, steps = ran+1, held+got.held, steps+got.steps
			rekeys, preempts = rekeys+got.queue.Rekeys, preempts+want.preempts
		})
	}
	// Both paths must be exercised: some demands hold, others park.
	if ran == plans && (held == 0 || uint64(held) >= steps) {
		t.Errorf("held %d of %d steps; the plans must exercise both paths", held, steps)
	}
	// Preemption must be exercised on both sides.
	if ran == plans && (rekeys == 0 || preempts == 0) {
		t.Errorf("slots re-keyed %d times, the reference preempted %d times; the plans must preempt", rekeys, preempts)
	}
}

// TestPreemptZeroLengthCompletion: on two cores, a kernel grant ends at
// t=10 on core 0, and an interrupt submitted at that instant preempts it
// with no time left.  Core 1's interrupt-priority grant also ends at
// t=10; its process's return starts the kernel grant there with a
// zero-length completion, armed at zero delay, and the process at once
// submits a second interrupt, which preempts that completion at the
// same instant.  The kernel grant completes at t=15, when a core frees.
func TestPreemptZeroLengthCompletion(t *testing.T) {
	pl := cpuPlan{
		cores: 2,
		procs: [][]cpuOp{
			{{d: 10, prio: Kernel}},
			{{d: 10, prio: Interrupt}, {d: 5, prio: Interrupt}},
		},
		bursts: []cpuBurst{{at: 10, ds: []sim.Time{5}}},
	}
	got, want := compareToRef(t, pl)
	if !reflect.DeepEqual(got.returns, [][]sim.Time{{15}, {10, 15}}) {
		t.Errorf("Use returned at %v, want [[15] [10 15]]", got.returns)
	}
	if want.preempts != 2 || want.zeroLength != 1 {
		t.Errorf("reference preempted %d grants, %d of them zero-length completions; want 2 and 1", want.preempts, want.zeroLength)
	}
	chain := runCPUPlan(pl, cpuRun{})
	if !reflect.DeepEqual(chain.returns, got.returns) || chain.steps != got.steps {
		t.Errorf("UseCall chains returned at %v in %d steps, Use at %v in %d", chain.returns, chain.steps, got.returns, got.steps)
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
	out, _ := compareToRef(t, pl)
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
	out, _ := compareToRef(t, pl)
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
			got.queue, want.queue = sim.QueueStats{}, sim.QueueStats{}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("UseCall chains diverge from Use:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestPropertyInPlaceCompleteMatchesScheduled runs every plan with
// CPU.complete and with cpuRef.complete, for processes and for callback
// chains: returns, usage, steps and OnStep timestamps must be identical,
// and some but not all wake-ups must have been handed off in place.
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
					t.Fatalf("cpuRef.complete handed off %d returns in place", want.handed)
				}
				ran, handed, woken = ran+1, handed+got.handed, woken+got.woken
				want.handed, want.queue = got.handed, got.queue
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
