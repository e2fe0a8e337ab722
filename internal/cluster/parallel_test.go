package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"comb/internal/sim"
)

// parLink is a positive-lookahead port: PerPacket > 0 so the partitioned
// fabric's conservative window (Latency + 2*PerPacket) has real width.
func parLink() LinkConfig {
	return LinkConfig{
		Bandwidth: 100 * MB,
		Latency:   5 * sim.Microsecond,
		PerPacket: 2 * sim.Microsecond,
		MTU:       4096,
	}
}

// backplaneLink is parLink behind a shared 150 MB/s switch backplane.
func backplaneLink() LinkConfig {
	l := parLink()
	l.BackplaneBandwidth = 150 * MB
	return l
}

// delivery is one sink observation, comparable across engines.
type delivery struct {
	to, from, size int
	payload        any
	at             sim.Time
}

func sortDeliveries(ds []delivery) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].at != ds[j].at {
			return ds[i].at < ds[j].at
		}
		if ds[i].to != ds[j].to {
			return ds[i].to < ds[j].to
		}
		return fmt.Sprint(ds[i].payload) < fmt.Sprint(ds[j].payload)
	})
}

// byPayload indexes deliveries by payload so arrival instants compare
// packet-for-packet, not just as a sorted multiset: a slot swap between
// two same-size packets must fail the test.
func byPayload(t *testing.T, ds []delivery) map[string]sim.Time {
	t.Helper()
	m := make(map[string]sim.Time, len(ds))
	for _, d := range ds {
		key := fmt.Sprint(d.payload)
		if _, dup := m[key]; dup {
			t.Fatalf("duplicate payload %q", key)
		}
		m[key] = d.at
	}
	return m
}

// trafficPlan drives one traffic mix against a fabric.  schedule posts fn
// at time at in node's partition (or the single serial env); sends from
// node must only ever run in node's events.
type trafficPlan func(f *Fabric, schedule func(node int, at sim.Time, fn func()))

// sendOne sends a single packet from the sender's pool.
func sendOne(f *Fabric, from, to, size int, urgent bool, tag string) {
	pkt := f.GetPacketFrom(from)
	pkt.From, pkt.To, pkt.Size, pkt.Urgent, pkt.Payload = from, to, size, urgent, tag
	f.Send(pkt)
}

// mixedPlan is a deterministic traffic mix: lone packets, an urgent
// packet, sender contention, multi-fragment messages, and both loopback
// shapes.
func mixedPlan(f *Fabric, schedule func(node int, at sim.Time, fn func())) {
	schedule(0, 0, func() { sendOne(f, 0, 1, 1000, false, "a0") })
	schedule(0, 0, func() { sendOne(f, 0, 1, 1000, false, "a1") }) // TX contention with a0
	schedule(2, 0, func() {
		f.SendMessage(2, 3, 10000, 16, func(i, n int, last bool) any { return fmt.Sprintf("m%d", i) })
	})
	schedule(1, 3*sim.Microsecond, func() { sendOne(f, 1, 0, 500, true, "urgent") })
	schedule(3, 1*sim.Microsecond, func() { sendOne(f, 3, 3, 700, false, "loop") })
	schedule(1, 2*sim.Microsecond, func() {
		f.SendMessage(1, 1, 9000, 16, func(i, n int, last bool) any { return fmt.Sprintf("l%d", i) })
	})
	// A second wave far enough out to span multiple windows.
	schedule(3, 40*sim.Microsecond, func() { sendOne(f, 3, 0, 2000, false, "b0") })
	schedule(2, 41*sim.Microsecond, func() { sendOne(f, 2, 1, 2000, false, "b1") })
}

// fanInPlan is the traffic shape collective trees produce and pairwise
// benchmarks never do: several nodes sending to one destination at the
// same virtual instant.  The schedule order (3, 1, 2) deliberately
// differs from node order, so an engine that claims receive-side time in
// send-execution order assigns the RX slots differently than one that
// claims in (birth instant, node) order.
func fanInPlan(f *Fabric, schedule func(node int, at sim.Time, fn func())) {
	at := 10 * sim.Microsecond
	schedule(3, at, func() { sendOne(f, 3, 0, 1000, false, "c3") })
	schedule(1, at, func() { sendOne(f, 1, 0, 1000, false, "c1") })
	schedule(2, at, func() { sendOne(f, 2, 0, 1000, false, "c2") })
	// A same-instant fragmented message into the same destination, plus a
	// second wave that reuses the lanes while the first is still draining.
	schedule(2, at, func() {
		f.SendMessage(2, 0, 6000, 16, func(i, n int, last bool) any { return fmt.Sprintf("f%d", i) })
	})
	schedule(3, 12*sim.Microsecond, func() { sendOne(f, 3, 0, 500, false, "d3") })
	schedule(1, 12*sim.Microsecond, func() { sendOne(f, 1, 0, 500, false, "d1") })
}

// runSerialPlan executes a plan on a fresh serial fabric.
func runSerialPlan(cfg LinkConfig, nodes int, plan trafficPlan) ([]delivery, [3]int64) {
	return runSerialFabric(NewFabric(sim.NewEnv(), nodes, cfg), plan)
}

// runSerialFabric executes a plan on serial fabric f.
func runSerialFabric(f *Fabric, plan trafficPlan) ([]delivery, [3]int64) {
	env := f.env
	var got []delivery
	for n := 0; n < f.Ports(); n++ {
		f.Attach(n, func(p *Packet) {
			got = append(got, delivery{to: p.To, from: p.From, size: p.Size, payload: p.Payload, at: env.Now()})
		})
	}
	plan(f, func(node int, at sim.Time, fn func()) { env.Schedule(at, fn) })
	env.Run()
	pk, by, de := f.Stats()
	return got, [3]int64{pk, by, de}
}

// runParallelPlan executes the same plan on a partitioned fabric under
// the window scheduler.
func runParallelPlan(t *testing.T, cfg LinkConfig, nodes, workers int, plan trafficPlan) ([]delivery, [3]int64) {
	t.Helper()
	envs := make([]*sim.Env, nodes)
	for i := range envs {
		envs[i] = sim.NewPartitionEnv(i)
	}
	f := NewParallelFabric(envs, cfg)
	if !f.Partitioned() {
		t.Fatal("NewParallelFabric did not produce a partitioned fabric")
	}
	// One slice per node: a sink only ever runs in its own partition, so
	// per-node state needs no synchronization (exactly the contract the
	// transports rely on).
	perNode := make([][]delivery, nodes)
	for n := 0; n < nodes; n++ {
		n := n
		f.Attach(n, func(p *Packet) {
			perNode[n] = append(perNode[n], delivery{to: p.To, from: p.From, size: p.Size, payload: p.Payload, at: envs[n].Now()})
		})
	}
	plan(f, func(node int, at sim.Time, fn func()) { envs[node].Schedule(at, fn) })
	w := sim.NewWindows(envs, f.Lookahead(), workers, f.Merge)
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got []delivery
	for _, ds := range perNode {
		got = append(got, ds...)
	}
	pk, by, de := f.Stats()
	return got, [3]int64{pk, by, de}
}

// TestParallelFabricMatchesSerial: the partitioned fabric must reproduce
// the serial fabric's deliveries — same packets, same arrival instants —
// across lone sends, urgent traffic, contention, fragmentation and both
// loopback paths.
func TestParallelFabricMatchesSerial(t *testing.T) {
	for _, cfg := range []struct {
		name string
		link LinkConfig
	}{
		{"crossbar", parLink()},
		{"backplane", backplaneLink()},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			want, wantStats := runSerialPlan(cfg.link, 4, mixedPlan)
			for _, workers := range []int{1, 4} {
				got, gotStats := runParallelPlan(t, cfg.link, 4, workers, mixedPlan)
				sortDeliveries(want)
				sortDeliveries(got)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d deliveries, serial had %d", workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("workers=%d: delivery %d = %+v, serial %+v", workers, i, got[i], want[i])
					}
				}
				if gotStats != wantStats {
					t.Errorf("workers=%d: stats %v, serial %v", workers, gotStats, wantStats)
				}
			}
		})
	}
}

// TestSameInstantFanInMatchesSerial pins the replay discipline: with
// several same-instant senders contending for one node's RX lane, the
// serial engine must hand out the receive slots in the same (birth
// instant, node, send order) the partitioned Merge uses, so every packet
// arrives at the identical instant on both engines.
func TestSameInstantFanInMatchesSerial(t *testing.T) {
	for _, cfg := range []struct {
		name string
		link LinkConfig
	}{
		{"crossbar", parLink()},
		{"backplane", backplaneLink()},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			if !Windowable(4, cfg.link) {
				t.Fatal("4-node jitter-free fabric must replay its sends")
			}
			serial, _ := runSerialPlan(cfg.link, 4, fanInPlan)
			par, _ := runParallelPlan(t, cfg.link, 4, 4, fanInPlan)
			want, got := byPayload(t, serial), byPayload(t, par)
			if len(got) != len(want) {
				t.Fatalf("parallel delivered %d packets, serial %d", len(got), len(want))
			}
			for key, at := range want {
				if got[key] != at {
					t.Errorf("payload %q arrived at %v parallel, %v serial", key, got[key], at)
				}
			}
			// The same-instant singles must take RX slots in node order —
			// c1 before c2 before c3 — regardless of send-execution order.
			if !(want["c1"] < want["c2"] && want["c2"] < want["c3"]) {
				t.Errorf("same-instant claims not in node order: c1=%v c2=%v c3=%v",
					want["c1"], want["c2"], want["c3"])
			}
		})
	}
}

// TestReplayMatchesInlineClaims: mixedPlan has no same-instant
// contention between senders, so the claim timing cannot matter there,
// and a serial fabric replaying through Merge must deliver it exactly as
// one claiming inline.  This pins the replay's absolute timing, which the
// engine comparisons cannot: both engines share it.
func TestReplayMatchesInlineClaims(t *testing.T) {
	for _, link := range []LinkConfig{parLink(), backplaneLink()} {
		want, wantStats := runSerialPlan(link, 4, mixedPlan)
		inline := NewFabric(sim.NewEnv(), 4, link)
		inline.replay = false
		got, gotStats := runSerialFabric(inline, mixedPlan)
		sortDeliveries(want)
		sortDeliveries(got)
		if len(got) != len(want) {
			t.Fatalf("backplane=%v: inline %d deliveries, replay %d", link.BackplaneBandwidth > 0, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("backplane=%v: delivery %d inline %+v, replay %+v", link.BackplaneBandwidth > 0, i, got[i], want[i])
			}
		}
		if gotStats != wantStats {
			t.Errorf("backplane=%v: stats inline %v, replay %v", link.BackplaneBandwidth > 0, gotStats, wantStats)
		}
	}
}

// randomPlan draws a traffic plan for an n-node fabric: several instants,
// each with a fan-in burst from a random subset of nodes into one
// destination (its own sender included, which loops back) plus scattered
// sends, mixing bulk and urgent single packets with multi-fragment
// messages.  Every payload is unique.
func randomPlan(r *sim.Rand, nodes int) trafficPlan {
	type send struct {
		from, to, size int
		at             sim.Time
		kind           int // 0 bulk packet, 1 urgent packet, 2 message
	}
	var sends []send
	draw := func(from, to int, at sim.Time) {
		s := send{from: from, to: to, at: at, kind: r.Intn(3)}
		if s.kind == 2 {
			s.size = r.Intn(3*parLink().MTU + 1)
		} else {
			s.size = 64 + r.Intn(4000)
		}
		sends = append(sends, s)
	}
	for k := 2 + r.Intn(4); k > 0; k-- {
		at := sim.Time(r.Intn(40)) * sim.Microsecond
		dst := r.Intn(nodes)
		for from := 0; from < nodes; from++ {
			if r.Intn(3) > 0 {
				draw(from, dst, at)
			}
		}
		for j := r.Intn(4); j > 0; j-- {
			draw(r.Intn(nodes), r.Intn(nodes), at)
		}
	}
	return func(f *Fabric, schedule func(node int, at sim.Time, fn func())) {
		for i, s := range sends {
			tag := fmt.Sprint(i)
			schedule(s.from, s.at, func() {
				if s.kind < 2 {
					sendOne(f, s.from, s.to, s.size, s.kind == 1, tag)
					return
				}
				f.SendMessage(s.from, s.to, s.size, 16, func(frag, n int, last bool) any {
					return fmt.Sprintf("%s/%d", tag, frag)
				})
			})
		}
	}
}

// TestPropertyFabricEnginesAgree runs random plans on 3–6 nodes, with and
// without a backplane, on the serial fabric (which replays at instant
// end) and on the partitioned fabric under 1 and 4 window workers: every
// payload must arrive at the same instant on all three, with the same
// stats.
func TestPropertyFabricEnginesAgree(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := sim.NewRand(seed * 0x9e3779b97f4a7c15)
			nodes := 3 + r.Intn(4)
			plan := randomPlan(r, nodes)
			for _, link := range []LinkConfig{parLink(), backplaneLink()} {
				serial, wantStats := runSerialPlan(link, nodes, plan)
				want := byPayload(t, serial)
				for _, workers := range []int{1, 4} {
					par, gotStats := runParallelPlan(t, link, nodes, workers, plan)
					got := byPayload(t, par)
					if len(got) != len(want) {
						t.Fatalf("backplane=%v workers=%d: %d payloads arrived, serial %d",
							link.BackplaneBandwidth > 0, workers, len(got), len(want))
					}
					for key, at := range want {
						if got[key] != at {
							t.Errorf("backplane=%v workers=%d: payload %q at %v, serial %v",
								link.BackplaneBandwidth > 0, workers, key, got[key], at)
						}
					}
					if gotStats != wantStats {
						t.Errorf("backplane=%v workers=%d: stats %v, serial %v",
							link.BackplaneBandwidth > 0, workers, gotStats, wantStats)
					}
				}
			}
		})
	}
}

// TestDeferredClaimsGate: a serial fabric replays its sends exactly when
// Windowable holds and no fault injector is installed; every other
// configuration keeps the inline claim order, because its seeded history
// is a golden.
func TestDeferredClaimsGate(t *testing.T) {
	with := func(edit func(*LinkConfig)) LinkConfig {
		l := parLink()
		edit(&l)
		return l
	}
	for _, c := range []struct {
		name  string
		nodes int
		link  LinkConfig
		want  bool
	}{
		{"2 nodes", 2, parLink(), false},
		{"3 nodes", 3, parLink(), true},
		{"jitter", 4, with(func(l *LinkConfig) { l.Jitter = 0.1 }), false},
		{"loss", 4, with(func(l *LinkConfig) { l.LossRate = 0.01 }), false},
		{"zero lookahead", 4, with(func(l *LinkConfig) { l.Latency, l.PerPacket = 0, 0 }), false},
		{"latency only", 4, with(func(l *LinkConfig) { l.PerPacket = 0 }), true},
	} {
		if got := Windowable(c.nodes, c.link); got != c.want {
			t.Errorf("%s: Windowable = %v, want %v", c.name, got, c.want)
		}
		f := NewFabric(sim.NewEnv(), c.nodes, c.link)
		if f.replay != c.want {
			t.Errorf("%s: serial fabric replay = %v, want %v", c.name, f.replay, c.want)
		}
		f.SetInjector(injectorFunc(func(pkt *Packet, at sim.Time) []sim.Time { return []sim.Time{at} }))
		if f.replay {
			t.Errorf("%s: fault-injected fabric must claim inline", c.name)
		}
		f.SetInjector(nil)
		if f.replay != c.want {
			t.Errorf("%s: removing the injector left replay = %v, want %v", c.name, f.replay, c.want)
		}
	}
}

// injectorFunc adapts a function to the Injector interface.
type injectorFunc func(pkt *Packet, at sim.Time) []sim.Time

func (fn injectorFunc) Deliver(pkt *Packet, at sim.Time) []sim.Time { return fn(pkt, at) }

// TestParallelFabricPacketReuse: port freelists recycle packets and
// trains, so a steady-state wave allocates nothing new (observable as
// repeated runs staying equal — reuse bugs corrupt later deliveries).
func TestParallelFabricPacketReuse(t *testing.T) {
	cfg := parLink()
	envs := []*sim.Env{sim.NewPartitionEnv(0), sim.NewPartitionEnv(1)}
	f := NewParallelFabric(envs, cfg)
	var arrivals []sim.Time
	f.Attach(0, func(p *Packet) {})
	f.Attach(1, func(p *Packet) { arrivals = append(arrivals, envs[1].Now()) })
	const waves = 5
	for k := 0; k < waves; k++ {
		at := sim.Time(k) * 100 * sim.Microsecond
		envs[0].Schedule(at, func() {
			f.SendMessage(0, 1, 8000, 0, func(i, n int, last bool) any { return i })
		})
	}
	w := sim.NewWindows(envs, f.Lookahead(), 2, f.Merge)
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != waves*2 {
		t.Fatalf("%d fragment deliveries, want %d", len(arrivals), waves*2)
	}
	// Identical waves must land with identical intra-wave spacing.
	gap := arrivals[1] - arrivals[0]
	for k := 1; k < waves; k++ {
		if g := arrivals[2*k+1] - arrivals[2*k]; g != gap {
			t.Fatalf("wave %d fragment gap %v, want %v (freelist reuse corrupted timing)", k, g, gap)
		}
	}
}

func TestParallelFabricLookahead(t *testing.T) {
	cfg := parLink()
	envs := []*sim.Env{sim.NewPartitionEnv(0), sim.NewPartitionEnv(1)}
	f := NewParallelFabric(envs, cfg)
	if want := cfg.Latency + 2*cfg.PerPacket; f.Lookahead() != want {
		t.Fatalf("lookahead %v, want %v", f.Lookahead(), want)
	}
	// The serial fabric is not partitioned.
	if NewFabric(sim.NewEnv(), 2, cfg).Partitioned() {
		t.Fatal("serial fabric reports partitioned")
	}
}

// TestParallelFabricRejectsRandomness: jitter and loss consume a global
// random stream in global event order, which partitions cannot replay;
// the constructor refuses rather than silently diverging.
func TestParallelFabricRejectsRandomness(t *testing.T) {
	envs := []*sim.Env{sim.NewPartitionEnv(0), sim.NewPartitionEnv(1)}
	mustPanic := func(name string, cfg LinkConfig) {
		t.Helper()
		defer func() {
			p := recover()
			if p == nil {
				t.Fatalf("%s: NewParallelFabric did not panic", name)
			}
			if s := fmt.Sprint(p); !strings.Contains(s, "cluster:") {
				t.Fatalf("%s: unexpected panic %v", name, p)
			}
		}()
		NewParallelFabric(envs, cfg)
	}
	jitter := parLink()
	jitter.Jitter = 0.1
	mustPanic("jitter", jitter)
	loss := parLink()
	loss.LossRate = 0.01
	mustPanic("loss", loss)
	mustPanic("mtu", LinkConfig{Bandwidth: 100 * MB, Latency: sim.Microsecond})
}
