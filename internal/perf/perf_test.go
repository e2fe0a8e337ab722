package perf

import (
	"testing"

	"comb/internal/cluster"
	"comb/internal/sim"
)

// benchLink is a Myrinet-class port: the configuration the reference
// platform's figures run on, minus jitter and loss so the benchmarks are
// deterministic and allocation-free.
func benchLink() cluster.LinkConfig {
	return cluster.LinkConfig{
		Bandwidth: 160 * cluster.MB,
		Latency:   9 * sim.Microsecond,
		PerPacket: 300 * sim.Nanosecond,
		MTU:       8192,
	}
}

// BenchmarkEnvSchedule measures one delayed Schedule plus its dispatch —
// the heap path of the event core.
func BenchmarkEnvSchedule(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEnv()
	i := 0
	var fn func()
	fn = func() {
		if i < b.N {
			i++
			e.Schedule(sim.Time(1+i%13), fn)
		}
	}
	e.Schedule(1, fn)
	e.Run()
}

// BenchmarkEnvDispatchRing measures one zero-delay Schedule plus its
// dispatch — the same-timestamp ring fast path.
func BenchmarkEnvDispatchRing(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEnv()
	i := 0
	var fn func()
	fn = func() {
		if i < b.N {
			i++
			e.Schedule(0, fn)
		}
	}
	e.Schedule(0, fn)
	e.Run()
}

// BenchmarkEnvArmDisarm measures the cancellation path: arm a slot,
// disarm it, let an interleaved event drive the clock.
func BenchmarkEnvArmDisarm(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEnv()
	s := e.NewSlots(1)
	i := 0
	idle := func(any) {}
	var fn func()
	fn = func() {
		if i < b.N {
			i++
			e.Arm(s, 100, idle, nil)
			e.Disarm(s)
			e.Schedule(1, fn)
		}
	}
	e.Schedule(1, fn)
	e.Run()
}

// BenchmarkProcSwitch measures one process park and resume: a Sleep(1)
// from the process into the event loop and back.
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEnv()
	defer e.Close()
	e.Spawn("bench", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.Run()
}

// BenchmarkProcSpawn measures creating a process and running it to
// completion.  A fresh environment every 1024 processes keeps the
// environment's process list from growing with b.N.
func BenchmarkProcSpawn(b *testing.B) {
	b.ReportAllocs()
	fn := func(*sim.Proc) {}
	e := sim.NewEnv()
	for i := 0; i < b.N; i++ {
		if i%1024 == 1023 {
			e.Close()
			e = sim.NewEnv()
		}
		e.Spawn("bench", fn)
		e.Run()
	}
	e.Close()
}

// BenchmarkCPUSubmit measures one SubmitCall completion round trip
// through the CPU scheduler.
func BenchmarkCPUSubmit(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEnv()
	cpu := cluster.NewSMP(e, "bench", 1)
	i := 0
	var fn func(any)
	fn = func(any) {
		if i < b.N {
			i++
			cpu.SubmitCall(100, cluster.Kernel, fn, nil)
		}
	}
	cpu.SubmitCall(100, cluster.Kernel, fn, nil)
	e.Run()
}

// quietNode is a reference-platform node with nothing else to run:
// every Work demand finds its core idle and nothing due before it ends.
func quietNode(e *sim.Env) *cluster.Node {
	return &cluster.Node{Env: e, CPU: cluster.NewCPU(e, "bench"), P: cluster.PlatformPIII500()}
}

// BenchmarkCPUUseQuiet measures one Work demand on an idle node: the
// quiet path, where the process holds the clock instead of parking.
func BenchmarkCPUUseQuiet(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEnv()
	defer e.Close()
	node := quietNode(e)
	e.Spawn("bench", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			node.Work(p, 10)
		}
	})
	e.Run()
}

// BenchmarkCPUUseQueued measures one Use that waits behind a kernel
// grant: the grant path, with an armed completion, a wake-up and a park.
func BenchmarkCPUUseQueued(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEnv()
	defer e.Close()
	cpu := cluster.NewCPU(e, "bench")
	e.Spawn("bench", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cpu.SubmitCall(100, cluster.Kernel, nil, nil)
			cpu.Use(p, 100, cluster.User)
		}
	})
	e.Run()
}

// preemptRig is one core running a kernel grant that outlasts any run.
// step submits an interrupt, which preempts the kernel grant, and runs
// the clock on until the interrupt has completed and the kernel grant,
// resumed on the core, has run for as long again.
func preemptRig() (e *sim.Env, step func()) {
	e = sim.NewEnv()
	cpu := cluster.NewCPU(e, "bench")
	cpu.SubmitCall(1<<60, cluster.Kernel, nil, nil)
	return e, func() {
		cpu.SubmitCall(100, cluster.Interrupt, nil, nil)
		e.RunUntil(e.Now() + 200)
	}
}

// BenchmarkCPUPreempt measures an interrupt SubmitCall preempting a
// running kernel grant, then the kernel grant resuming when the
// interrupt completes: the saturated packet chain's commonest step.
// An op is one preemption, with its one completion event.
func BenchmarkCPUPreempt(b *testing.B) {
	b.ReportAllocs()
	e, step := preemptRig()
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkFabricSend measures one single-packet Send: transit
// computation, delivery scheduling, sink consumption, packet reclaim.
func BenchmarkFabricSend(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEnv()
	f := cluster.NewFabric(e, 2, benchLink())
	f.Attach(0, func(*cluster.Packet) {})
	f.Attach(1, func(*cluster.Packet) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := f.GetPacketFrom(0)
		pkt.From, pkt.To, pkt.Size = 0, 1, 4096
		f.Send(pkt)
		e.Run()
	}
}

// BenchmarkFabricSendMessage measures a fragmented 64 KB message: one
// packet train end to end, every fragment consumed by the sink.
func BenchmarkFabricSendMessage(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEnv()
	f := cluster.NewFabric(e, 2, benchLink())
	f.Attach(0, func(*cluster.Packet) {})
	f.Attach(1, func(*cluster.Packet) {})
	payload := new(int)
	mk := func(i, n int, last bool) any { return payload }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SendMessage(0, 1, 65536, 16, mk)
		e.Run()
	}
}

// replayRound builds a 4-node serial fabric, which replays its sends at
// instant end (cluster.Windowable), and returns one round of fan-in
// traffic: three same-instant packets into node 0 plus a fragmented
// message, driven through the replay to delivery.
func replayRound() func() {
	e := sim.NewEnv()
	f := cluster.NewFabric(e, 4, benchLink())
	for n := 0; n < 4; n++ {
		f.Attach(n, func(*cluster.Packet) {})
	}
	payload := new(int)
	mk := func(i, n int, last bool) any { return payload }
	return func() {
		for from := 1; from < 4; from++ {
			pkt := f.GetPacketFrom(from)
			pkt.From, pkt.To, pkt.Size = from, 0, 4096
			f.Send(pkt)
		}
		f.SendMessage(1, 0, 65536, 16, mk)
		e.Run()
	}
}

// BenchmarkFabricSendDeferred measures the replay path: TX claims inline,
// then the instant-end Merge claiming RX time in node order.
func BenchmarkFabricSendDeferred(b *testing.B) {
	b.ReportAllocs()
	round := replayRound()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// TestScheduleZeroAllocs pins the event core's allocation guarantee:
// after arena warm-up, Schedule and dispatch allocate nothing, on both
// the heap and the ring path.
func TestScheduleZeroAllocs(t *testing.T) {
	e := sim.NewEnv()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(sim.Time(i%29), fn)
	}
	e.Run()
	if avg := testing.AllocsPerRun(200, func() {
		e.Schedule(7, fn)
		e.Schedule(0, fn)
		e.Run()
	}); avg != 0 {
		t.Errorf("Schedule+dispatch allocates %.1f objects/op, want 0", avg)
	}
}

// TestScheduleCallZeroAllocs pins the argument-carrying variant: a bound
// method value plus a pointer argument must not box or capture.
func TestScheduleCallZeroAllocs(t *testing.T) {
	e := sim.NewEnv()
	fn := func(any) {}
	arg := new(int)
	for i := 0; i < 1024; i++ {
		e.ScheduleCall(sim.Time(i%29), fn, arg)
	}
	e.Run()
	if avg := testing.AllocsPerRun(200, func() {
		e.ScheduleCall(7, fn, arg)
		e.Run()
	}); avg != 0 {
		t.Errorf("ScheduleCall+dispatch allocates %.1f objects/op, want 0", avg)
	}
}

// TestArmDisarmZeroAllocs pins the slot path: arming a slot at a
// positive and at zero delay, re-keying it, disarming it and running it
// allocate nothing.
func TestArmDisarmZeroAllocs(t *testing.T) {
	e := sim.NewEnv()
	s := e.NewSlots(2)
	fn := func(any) {}
	arg := new(int)
	if avg := testing.AllocsPerRun(200, func() {
		e.Arm(s, 100, fn, arg)
		e.Disarm(s)
		e.Arm(s+1, 7, fn, arg)
		e.Arm(s+1, 0, fn, arg)
		e.Arm(s, 3, fn, arg)
		e.Run()
	}); avg != 0 {
		t.Errorf("Arm+Disarm+dispatch allocates %.1f objects/op, want 0", avg)
	}
}

// TestProcSwitchZeroAllocs pins the process switch: parking a process
// and resuming it allocates nothing.
func TestProcSwitchZeroAllocs(t *testing.T) {
	e := sim.NewEnv()
	defer e.Close()
	e.Spawn("sleeper", func(p *sim.Proc) {
		for {
			p.Sleep(1)
		}
	})
	e.RunUntil(64)
	now := e.Now()
	if avg := testing.AllocsPerRun(200, func() {
		now++
		e.RunUntil(now)
	}); avg != 0 {
		t.Errorf("process park+resume allocates %.1f objects/op, want 0", avg)
	}
}

// TestCPUUseQuietZeroAllocs pins the quiet path: a Work demand on an
// idle node holds the clock in place, allocates nothing and leaves
// nothing queued.  An observer counts the steps run from inside the
// process, which are the held ones.
func TestCPUUseQuietZeroAllocs(t *testing.T) {
	e := sim.NewEnv()
	defer e.Close()
	node := quietNode(e)
	held := 0
	e.OnStep(func(sim.Time) {
		if e.Cur() != nil {
			held++
		}
	})
	const runs = 200
	var avg float64
	e.Spawn("worker", func(p *sim.Proc) {
		avg = testing.AllocsPerRun(runs, func() {
			node.Work(p, 10)
			if n := e.Pending(); n != 0 {
				t.Errorf("quiet Work left %d events pending", n)
			}
		})
	})
	e.Run()
	if avg != 0 {
		t.Errorf("quiet CPU.Use allocates %.1f objects/op, want 0", avg)
	}
	// AllocsPerRun calls the function once more to warm up.
	if want := 2 * (runs + 1); held != want {
		t.Errorf("held %d steps, want %d: every quiet demand must hold", held, want)
	}
}

// TestCPUPreemptZeroAllocs pins the preemption path: once warm, an
// interrupt preempting a kernel grant, and the kernel grant resuming,
// allocate nothing.  Each step must re-key the core's completion slot
// once, so the rig really preempts.
func TestCPUPreemptZeroAllocs(t *testing.T) {
	e, step := preemptRig()
	defer e.Close()
	step()
	const runs = 200
	q0 := e.QueueStats()
	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Errorf("a preemption and resume allocate %.1f objects/op, want 0", avg)
	}
	// AllocsPerRun calls the function once more to warm up.
	if rekeys := e.QueueStats().Rekeys - q0.Rekeys; rekeys != runs+1 {
		t.Errorf("%d steps re-keyed %d slots, want one each: the rig must preempt", runs+1, rekeys)
	}
}

// spawnAllocs is what creating and finishing one process costs: the Proc,
// the coroutine and the closures that bind it.  It is paid once per
// process, never per switch.
const spawnAllocs = 13

// TestProcSpawnAllocs bounds the per-process cost of a coroutine.
func TestProcSpawnAllocs(t *testing.T) {
	e := sim.NewEnv()
	defer e.Close()
	fn := func(*sim.Proc) {}
	for i := 0; i < 64; i++ {
		e.Spawn("warm", fn)
	}
	e.Run()
	if avg := testing.AllocsPerRun(50, func() {
		e.Spawn("p", fn)
		e.Run()
	}); avg > spawnAllocs {
		t.Errorf("Spawn+run allocates %.1f objects/op, want <= %d", avg, spawnAllocs)
	}
}

// TestFabricSendZeroAllocs pins the injector-free fabric guarantee: a
// pooled packet's full lifecycle — GetPacketFrom, Send, delivery, sink,
// reclaim — allocates nothing once the freelist is warm.
func TestFabricSendZeroAllocs(t *testing.T) {
	e := sim.NewEnv()
	f := cluster.NewFabric(e, 2, benchLink())
	f.Attach(0, func(*cluster.Packet) {})
	f.Attach(1, func(*cluster.Packet) {})
	send := func() {
		pkt := f.GetPacketFrom(0)
		pkt.From, pkt.To, pkt.Size = 0, 1, 4096
		f.Send(pkt)
		e.Run()
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Errorf("Fabric.Send lifecycle allocates %.1f objects/op, want 0", avg)
	}
}

// TestSendMessageAllocs bounds the packet-train path: a warmed-up
// fragmented message reuses its train, packets and slices from the
// freelists and must stay allocation-free end to end.
func TestSendMessageAllocs(t *testing.T) {
	e := sim.NewEnv()
	f := cluster.NewFabric(e, 2, benchLink())
	f.Attach(0, func(*cluster.Packet) {})
	f.Attach(1, func(*cluster.Packet) {})
	payload := new(int)
	mk := func(i, n int, last bool) any { return payload }
	send := func() {
		f.SendMessage(0, 1, 65536, 16, mk)
		e.Run()
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Errorf("Fabric.SendMessage lifecycle allocates %.1f objects/op, want 0", avg)
	}
}

// TestFabricSendDeferredZeroAllocs pins the replay path: outboxes, the
// instant-end hook and the merged trains reuse their storage once warm.
func TestFabricSendDeferredZeroAllocs(t *testing.T) {
	if !cluster.Windowable(4, benchLink()) {
		t.Fatal("a 4-node fabric on benchLink must replay its sends")
	}
	round := replayRound()
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("replayed fan-in round allocates %.1f objects/op, want 0", avg)
	}
}
