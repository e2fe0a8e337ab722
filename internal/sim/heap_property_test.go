package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// This file checks the event core's 4-ary value heap + same-timestamp
// ring against an oracle built on the standard library's container/heap —
// the implementation the core used before the optimization.  The property
// under test is FIFO-stable dispatch: events fire in timestamp order, and
// events sharing a timestamp fire in the order they were scheduled, with
// cancellation (Timer.Stop) removing exactly the stopped events.

// refEvent is one oracle entry: fire time, scheduling sequence, plan id.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refHeap is the reference scheduler's container/heap of pointers.
type refHeap []*refEvent

func (h refHeap) Len() int      { return len(h) }
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h *refHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// propPlan is a deterministic, pre-generated workload: each node fires
// once (unless cancelled) and may schedule children or cancel other nodes
// at fire time, exercising the in-dispatch scheduling paths (ring
// fast-path, same-instant heap entries, cancellation of both).
type propNode struct {
	delay    Time  // delay relative to the scheduling instant
	children []int // node ids scheduled when this node fires
	cancels  []int // node ids whose timers are stopped when this fires
}

// genPlan builds a random plan of n nodes.  Roots are nodes scheduled up
// front; the rest are reachable as children (possibly of several parents —
// the trace only records first scheduling, see runEnvPlan).
func genPlan(rng *Rand, n int) (nodes []propNode, roots []int) {
	nodes = make([]propNode, n)
	for i := range nodes {
		// Heavy mass on 0 and small delays: collisions and the ring
		// fast-path are the interesting regime.  A far-future class keeps
		// the heap deep and its entries alive long enough to be stopped,
		// so removals land anywhere in the heap, not just near the root.
		var d Time
		switch rng.Intn(5) {
		case 0:
			d = 0
		case 1:
			d = Time(rng.Intn(3))
		case 2:
			d = Time(100 + rng.Intn(400))
		default:
			d = Time(rng.Intn(50))
		}
		nodes[i].delay = d
		for c := rng.Intn(3); c > 0; c-- {
			nodes[i].children = append(nodes[i].children, rng.Intn(n))
		}
		if rng.Intn(4) == 0 {
			nodes[i].cancels = append(nodes[i].cancels, rng.Intn(n))
		}
	}
	for r := 0; r < 1+n/8; r++ {
		roots = append(roots, rng.Intn(n))
	}
	return nodes, roots
}

// stopCases counts the heap removals Timer.Stop performed in a plan that
// need more than the plain swap-and-sift-down: removing the last entry
// (nothing moves) and removing an entry whose replacement must sift up.
type stopCases struct {
	last, up int
}

// classify records which removal case stopping tm is about to exercise.
func (sc *stopCases) classify(e *Env, tm Timer) {
	if !tm.Active() {
		return
	}
	s := e.slots[tm.idx]
	if s.where != qHeap {
		return
	}
	pos, last := int(s.pos), len(e.heap)-1
	switch {
	case pos == last:
		sc.last++
	case pos > 0 && e.heap[last].less(&e.heap[(pos-1)>>2].key):
		sc.up++
	}
}

// runEnvPlan executes the plan on the real Env and returns the fire
// trace.  Each node is scheduled at most once (first scheduling wins) so
// the plan terminates.
func runEnvPlan(t *testing.T, nodes []propNode, roots []int, sc *stopCases) []int {
	t.Helper()
	e := NewEnv()
	var trace []int
	timers := make([]Timer, len(nodes))
	scheduled := make([]bool, len(nodes))
	var schedule func(id int)
	schedule = func(id int) {
		if scheduled[id] {
			return
		}
		scheduled[id] = true
		n := &nodes[id]
		timers[id] = e.ScheduleTimer(n.delay, func() {
			trace = append(trace, id)
			for _, c := range n.children {
				schedule(c)
			}
			for _, c := range n.cancels {
				if scheduled[c] {
					sc.classify(e, timers[c])
					timers[c].Stop()
				}
			}
		})
	}
	for _, r := range roots {
		schedule(r)
	}
	e.Run()
	return trace
}

// runRefPlan executes the same plan on the container/heap oracle.
func runRefPlan(nodes []propNode, roots []int) []int {
	var (
		trace     []int
		h         refHeap
		now       Time
		seq       uint64
		scheduled = make([]bool, len(nodes))
		cancelled = make([]bool, len(nodes))
	)
	schedule := func(id int) {
		if scheduled[id] {
			return
		}
		scheduled[id] = true
		heap.Push(&h, &refEvent{at: now + nodes[id].delay, seq: seq, id: id})
		seq++
	}
	for _, r := range roots {
		schedule(r)
	}
	for h.Len() > 0 {
		ev := heap.Pop(&h).(*refEvent)
		if ev.at < now {
			panic("oracle: time went backwards")
		}
		now = ev.at
		if cancelled[ev.id] {
			continue
		}
		trace = append(trace, ev.id)
		n := &nodes[ev.id]
		for _, c := range n.children {
			schedule(c)
		}
		for _, c := range n.cancels {
			if scheduled[c] {
				cancelled[c] = true
			}
		}
	}
	return trace
}

// stopPlan is a hand-built plan for the removal cases random plans rarely
// reach.  Nodes 0-9 are roots pushed in order onto the heap:
//
//	index  0   1    2   3   4   5    6    7    8    9
//	at     10  500  20  30  40  510  520  530  540  25
//
// Node 10 runs first, from the ring at t=0.  It stops node 5, at index
// 5 under the 500 at index 1, so the last entry (25, a child of index 2)
// takes its place and must sift up past 500.  It then stops node 8, by
// then the last heap entry.
func stopPlan() (nodes []propNode, roots []int) {
	for i, d := range []Time{10, 500, 20, 30, 40, 510, 520, 530, 540, 25, 0} {
		nodes = append(nodes, propNode{delay: d})
		roots = append(roots, i)
	}
	nodes[10].cancels = []int{5, 8}
	return nodes, roots
}

// TestHeapMatchesReferenceOrdering drives many random plans, and one
// hand-built plan of removals, through both schedulers and requires
// identical fire traces.
func TestHeapMatchesReferenceOrdering(t *testing.T) {
	check := func(t *testing.T, nodes []propNode, roots []int, sc *stopCases) {
		got := runEnvPlan(t, nodes, roots, sc)
		want := runRefPlan(nodes, roots)
		if len(got) != len(want) {
			t.Fatalf("trace lengths differ: env %d vs oracle %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trace diverges at %d: env fired %d, oracle %d", i, got[i], want[i])
			}
		}
	}
	t.Run("stops", func(t *testing.T) {
		var sc stopCases
		nodes, roots := stopPlan()
		check(t, nodes, roots, &sc)
		if sc != (stopCases{last: 1, up: 1}) {
			t.Errorf("plan stopped %+v, want one last-entry and one sift-up removal", sc)
		}
	})
	for seed := uint64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := NewRand(seed * 0x9e3779b97f4a7c15)
			nodes, roots := genPlan(rng, 40+int(seed)%100)
			check(t, nodes, roots, &stopCases{})
		})
	}
}

// TestHeapStableFIFOAtSameInstant pins the core invariant directly: many
// events scheduled for the same timestamp, from a mix of up-front and
// in-dispatch scheduling, fire in exact scheduling order.
func TestHeapStableFIFOAtSameInstant(t *testing.T) {
	e := NewEnv()
	var got []int
	id := 0
	// 10 events at t=5 scheduled at t=0 (heap path)...
	for i := 0; i < 10; i++ {
		i := id
		e.Schedule(5, func() { got = append(got, i) })
		id++
	}
	// ...and an event at t=5 that schedules 10 more zero-delay events
	// (ring path), which must fire after every heap entry already
	// scheduled for t=5 but before anything later.
	first := id
	id++
	ringBase := id
	id += 10
	e.Schedule(5, func() {
		got = append(got, first)
		for i := 0; i < 10; i++ {
			i := ringBase + i
			e.Schedule(0, func() { got = append(got, i) })
		}
	})
	last := id
	e.Schedule(6, func() { got = append(got, last) })
	e.Run()
	if len(got) != 22 {
		t.Fatalf("fired %d events, want 22", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d fired event %d; want strict scheduling order", i, v)
		}
	}
}

// --- completion slots: re-keyable entries beside the heap -----------------
//
// A slot arm draws its key as a timer would, and a re-key is the same as
// stopping the slot's timer and scheduling a new one.  The oracle models
// exactly that: every arm pushes a fresh entry, and a re-key or a disarm
// cancels the slot's current one.

// slotOp is one slot operation a plan node performs when it fires: arm
// slot (re-keying it if armed) to fire after delay, scheduling children
// when it fires; or, with disarm set, cancel the slot's callback.
type slotOp struct {
	slot     int
	delay    Time
	disarm   bool
	children []int
	id       int // trace id of this arm's firing
}

// slotPlan is a propPlan whose nodes also operate on a few slots.
type slotPlan struct {
	nodes []propNode
	roots []int
	ops   [][]slotOp // per node
	slots int
}

func genSlotPlan(rng *Rand, n int) slotPlan {
	nodes, roots := genPlan(rng, n)
	pl := slotPlan{nodes: nodes, roots: roots, ops: make([][]slotOp, n), slots: 1 + rng.Intn(4)}
	next := n
	for i := range pl.ops {
		for k := rng.Intn(3); k > 0; k-- {
			op := slotOp{slot: rng.Intn(pl.slots)}
			if rng.Intn(4) == 0 {
				op.disarm = true
				pl.ops[i] = append(pl.ops[i], op)
				continue
			}
			// Same delay classes as genPlan's, minus zero: collisions
			// with heap and ring entries are the interesting regime.
			switch rng.Intn(4) {
			case 0:
				op.delay = Time(1 + rng.Intn(2))
			case 1:
				op.delay = Time(100 + rng.Intn(400))
			default:
				op.delay = Time(1 + rng.Intn(50))
			}
			if rng.Intn(2) == 0 {
				op.children = append(op.children, rng.Intn(n))
			}
			op.id = next
			next++
			pl.ops[i] = append(pl.ops[i], op)
		}
	}
	return pl
}

// slotRun is what runEnvSlotPlan saw: the fire trace, and how often a
// slot fired at an instant where a heap or ring entry also fired.
type slotRun struct {
	trace []int
	ties  int
}

// runEnvSlotPlan executes the plan on e with real slots and timers.
func runEnvSlotPlan(e *Env, pl slotPlan) slotRun {
	var out slotRun
	n := len(pl.nodes)
	timers := make([]Timer, n)
	scheduled := make([]bool, n)
	first := e.NewSlots(pl.slots)
	slotAt, otherAt := Time(-1), Time(-2)
	note := func(slot bool) {
		if slot {
			slotAt = e.Now()
		} else {
			otherAt = e.Now()
		}
		if slotAt == otherAt {
			out.ties++
		}
	}
	var schedule func(id int)
	fire := func(a any) {
		op := a.(*slotOp)
		note(true)
		out.trace = append(out.trace, op.id)
		for _, c := range op.children {
			schedule(c)
		}
	}
	schedule = func(id int) {
		if scheduled[id] {
			return
		}
		scheduled[id] = true
		nd := &pl.nodes[id]
		timers[id] = e.ScheduleTimer(nd.delay, func() {
			note(false)
			out.trace = append(out.trace, id)
			for _, c := range nd.children {
				schedule(c)
			}
			for _, c := range nd.cancels {
				if scheduled[c] {
					timers[c].Stop()
				}
			}
			for k := range pl.ops[id] {
				op := &pl.ops[id][k]
				if op.disarm {
					e.Disarm(first + Slot(op.slot))
				} else {
					e.Arm(first+Slot(op.slot), op.delay, fire, op)
				}
			}
		})
	}
	for _, r := range pl.roots {
		schedule(r)
	}
	e.Run()
	return out
}

// runRefSlotPlan executes the same plan on the container/heap oracle.
func runRefSlotPlan(pl slotPlan) []int {
	var (
		trace     []int
		h         refHeap
		now       Time
		seq       uint64
		n         = len(pl.nodes)
		scheduled = make([]bool, n)
		cancelled = map[int]bool{}
		armed     = make([]int, pl.slots) // trace id of each slot's entry, or -1
		opOf      = map[int]*slotOp{}
	)
	for i := range armed {
		armed[i] = -1
	}
	push := func(at Time, id int) {
		heap.Push(&h, &refEvent{at: at, seq: seq, id: id})
		seq++
	}
	schedule := func(id int) {
		if !scheduled[id] {
			scheduled[id] = true
			push(now+pl.nodes[id].delay, id)
		}
	}
	for _, r := range pl.roots {
		schedule(r)
	}
	for h.Len() > 0 {
		ev := heap.Pop(&h).(*refEvent)
		if ev.at < now {
			panic("oracle: time went backwards")
		}
		now = ev.at
		if cancelled[ev.id] {
			continue
		}
		trace = append(trace, ev.id)
		if op := opOf[ev.id]; op != nil {
			armed[op.slot] = -1
			for _, c := range op.children {
				schedule(c)
			}
			continue
		}
		nd := &pl.nodes[ev.id]
		for _, c := range nd.children {
			schedule(c)
		}
		for _, c := range nd.cancels {
			if scheduled[c] {
				cancelled[c] = true
			}
		}
		for k := range pl.ops[ev.id] {
			op := &pl.ops[ev.id][k]
			if cur := armed[op.slot]; cur >= 0 {
				cancelled[cur] = true
				armed[op.slot] = -1
			}
			if !op.disarm {
				opOf[op.id] = op
				armed[op.slot] = op.id
				push(now+op.delay, op.id)
			}
		}
	}
	return trace
}

// TestHeapSlotsMatchReferenceOrdering drives random plans that mix heap
// events, timers (some stopped) and slot arms, re-keys and disarms
// through the event core and the container/heap oracle, on a serial and
// on a partition environment, and requires identical fire traces.  The
// plans must re-key, disarm and fire slots at instants shared with heap
// or ring entries.
func TestHeapSlotsMatchReferenceOrdering(t *testing.T) {
	envs := []struct {
		name string
		make func() *Env
	}{{"serial", NewEnv}, {"partition", func() *Env { return NewPartitionEnv(1) }}}
	var q QueueStats
	ties := 0
	for _, env := range envs {
		for seed := uint64(1); seed <= 60; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", env.name, seed), func(t *testing.T) {
				pl := genSlotPlan(NewRand(seed*0x9e3779b97f4a7c15), 40+int(seed)%100)
				e := env.make()
				got := runEnvSlotPlan(e, pl)
				want := runRefSlotPlan(pl)
				if fmt.Sprint(got.trace) != fmt.Sprint(want) {
					t.Fatalf("traces differ:\n env    %v\n oracle %v", got.trace, want)
				}
				if e.Pending() != 0 {
					t.Errorf("%d events pending after the run", e.Pending())
				}
				s := e.QueueStats()
				q.Arms, q.Rekeys, ties = q.Arms+s.Arms, q.Rekeys+s.Rekeys, ties+got.ties
			})
		}
	}
	if q.Arms == 0 || q.Rekeys == 0 || ties == 0 {
		t.Errorf("plans armed %d slots, re-keyed %d and fired %d at a shared instant; want all three", q.Arms, q.Rekeys, ties)
	}
}

// TestHeapSlotTiesAtOneInstant pins same-instant order by hand.  Heap
// entries A and B and slot S are all due at t=10, scheduled A, S, B; at
// t=5, C re-keys S to t=10 again, which puts it behind B.  At t=10, A
// schedules a zero-delay R, which runs after every entry scheduled
// before the instant.  A second slot T, armed for t=10 after the re-key,
// runs after S.
func TestHeapSlotTiesAtOneInstant(t *testing.T) {
	for _, e := range []*Env{NewEnv(), NewPartitionEnv(3)} {
		var got []string
		rec := func(name string) func(any) { return func(any) { got = append(got, name) } }
		slots := e.NewSlots(2)
		s, tt := slots, slots+1
		e.Schedule(10, func() {
			got = append(got, "A")
			e.Schedule(0, func() { got = append(got, "R") })
		})
		e.Arm(s, 10, rec("S-old"), nil)
		e.Schedule(10, func() { got = append(got, "B") })
		e.Schedule(5, func() {
			got = append(got, "C")
			e.Arm(s, 5, rec("S"), nil)
			e.Arm(tt, 5, rec("T"), nil)
		})
		e.Run()
		if want := "[C A B S T R]"; fmt.Sprint(got) != want {
			t.Errorf("partitioned=%v: order %v, want %s", e.Partitioned(), got, want)
		}
		if q := e.QueueStats(); q.Arms != 3 || q.Rekeys != 1 || e.Pending() != 0 {
			t.Errorf("partitioned=%v: %+v, pending %d; want 3 arms, 1 re-key, none pending", e.Partitioned(), q, e.Pending())
		}
	}
}

// --- partition stamping: the cross-partition merge order ------------------
//
// The parallel engine replaces the serial global sequence with (at, birth
// instant, partition|local seq) stamps so deliveries merged from other
// partitions slot into a deterministic total order.  The tests below drive
// a partition environment — local events self-stamp, merged mail arrives
// through ScheduleStamped — against a container/heap oracle whose
// comparator is the full three-key (at, seq, sub) order.

// refEvent3 is one oracle entry under partition stamping.
type refEvent3 struct {
	at  Time
	seq uint64
	sub uint64
	id  int
}

type refHeap3 []*refEvent3

func (h refHeap3) Len() int      { return len(h) }
func (h refHeap3) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refHeap3) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].seq != h[j].seq {
		return h[i].seq < h[j].seq
	}
	return h[i].sub < h[j].sub
}
func (h *refHeap3) Push(x any) { *h = append(*h, x.(*refEvent3)) }
func (h *refHeap3) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// mailItem is one pre-stamped cross-partition delivery, as the merge
// phase would inject it.
type mailItem struct {
	at  Time
	seq uint64 // sender-side birth instant
	sub uint64 // sender partition stamp | sender local seq
	id  int
}

// genMail builds m random mail items from the given sender partitions,
// with deliberate collisions: shared delivery instants, shared birth
// instants, and same-(at,seq) pairs that only sub can order.
func genMail(rng *Rand, firstID, m int, senders []int) []mailItem {
	mails := make([]mailItem, 0, m)
	localSeq := make(map[int]uint64)
	var prev mailItem
	for i := 0; i < m; i++ {
		s := senders[rng.Intn(len(senders))]
		localSeq[s]++
		var birth, at Time
		if i > 0 && rng.Intn(3) == 0 {
			// Collide with the previous mail: same delivery instant, and
			// half the time the same birth instant too, so only sub decides.
			at = prev.at
			birth = Time(prev.seq)
			if rng.Intn(2) == 0 {
				birth = Time(rng.Intn(int(at) + 1))
			}
		} else {
			birth = Time(rng.Intn(40))
			at = birth + Time(1+rng.Intn(10))
		}
		it := mailItem{
			at:  at,
			seq: uint64(birth),
			sub: uint64(s+1)<<40 | localSeq[s],
			id:  firstID + i,
		}
		mails = append(mails, it)
		prev = it
	}
	return mails
}

// runPartitionPlan executes a local plan plus injected mail on a real
// partition environment and returns the fire trace.
func runPartitionPlan(t *testing.T, part int, nodes []propNode, roots []int, mails []mailItem) []int {
	t.Helper()
	e := NewPartitionEnv(part)
	var trace []int
	timers := make([]Timer, len(nodes))
	scheduled := make([]bool, len(nodes))
	var schedule func(id int)
	schedule = func(id int) {
		if scheduled[id] {
			return
		}
		scheduled[id] = true
		n := &nodes[id]
		timers[id] = e.ScheduleTimer(n.delay, func() {
			trace = append(trace, id)
			for _, c := range n.children {
				schedule(c)
			}
			for _, c := range n.cancels {
				if scheduled[c] {
					timers[c].Stop()
				}
			}
		})
	}
	for _, m := range mails {
		m := m
		e.ScheduleStamped(m.at, m.seq, m.sub, func(any) { trace = append(trace, m.id) }, nil)
	}
	for _, r := range roots {
		schedule(r)
	}
	e.Run()
	return trace
}

// runRefPartitionPlan executes the same plan on the three-key oracle,
// modelling the partition stamp rules independently: a local event
// scheduled at instant T carries seq = T (its birth) and
// sub = partition stamp | a per-environment counter bumped on every
// scheduling.
func runRefPartitionPlan(part int, nodes []propNode, roots []int, mails []mailItem) []int {
	var (
		trace     []int
		h         refHeap3
		now       Time
		counter   uint64
		stamp     = uint64(part+1) << 40
		scheduled = make([]bool, len(nodes))
		cancelled = make([]bool, len(nodes))
	)
	schedule := func(id int) {
		if scheduled[id] {
			return
		}
		scheduled[id] = true
		counter++
		heap.Push(&h, &refEvent3{at: now + nodes[id].delay, seq: uint64(now), sub: stamp | counter, id: id})
	}
	for _, m := range mails {
		heap.Push(&h, &refEvent3{at: m.at, seq: m.seq, sub: m.sub, id: m.id})
	}
	for _, r := range roots {
		schedule(r)
	}
	for h.Len() > 0 {
		ev := heap.Pop(&h).(*refEvent3)
		if ev.at < now {
			panic("oracle: time went backwards")
		}
		now = ev.at
		if ev.id < len(nodes) {
			if cancelled[ev.id] {
				continue
			}
			trace = append(trace, ev.id)
			n := &nodes[ev.id]
			for _, c := range n.children {
				schedule(c)
			}
			for _, c := range n.cancels {
				if scheduled[c] {
					cancelled[c] = true
				}
			}
			continue
		}
		trace = append(trace, ev.id) // mail: fire only
	}
	return trace
}

// TestPartitionMergeMatchesOracle drives many random local plans with
// injected cross-partition mail through a partition environment and the
// container/heap oracle, requiring identical fire traces — the merge
// order the parallel engine's determinism rests on.
func TestPartitionMergeMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := NewRand(seed * 0x9e3779b97f4a7c15)
			n := 30 + int(seed)%60
			nodes, roots := genPlan(rng, n)
			// Destination partition 2; mail from partitions 0, 1 and 3, so
			// sub stamps fall both below and above the local stamp.
			mails := genMail(rng, n, 25+int(seed)%20, []int{0, 1, 3})
			got := runPartitionPlan(t, 2, nodes, roots, mails)
			want := runRefPartitionPlan(2, nodes, roots, mails)
			if len(got) != len(want) {
				t.Fatalf("trace lengths differ: env %d vs oracle %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trace diverges at %d: env fired %d, oracle %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestScheduleStampedOrdersBySub pins the last tie-break key directly:
// events sharing (at, seq) fire in sub order however they were inserted.
func TestScheduleStampedOrdersBySub(t *testing.T) {
	e := NewPartitionEnv(0)
	var got []uint64
	subs := []uint64{7, 3, 9, 1, 8, 2, 6, 4, 5}
	for _, s := range subs {
		s := s
		e.ScheduleStamped(10, 5, s, func(any) { got = append(got, s) }, nil)
	}
	e.Run()
	if len(got) != len(subs) {
		t.Fatalf("fired %d events, want %d", len(got), len(subs))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("sub order violated: %v", got)
		}
	}
}
