package core_test

import (
	"fmt"
	"sync"
	"time"

	"comb/internal/core"
)

// fakeWorld is an in-memory, goroutine-per-rank Machine implementation used
// to unit-test the benchmark methods' protocol logic (termination
// handshake, counting, phase accounting) independently of the simulator.
//
// Semantics: sends complete instantly; a receive completes as soon as a
// matching message exists; each rank has a private logical clock advanced
// only by Work (1 ns per iteration) so phase accounting is exact and
// deterministic per rank.
type fakeWorld struct {
	mu   sync.Mutex
	cond *sync.Cond
	size int

	queues map[fakeKey][]*fakeMsg
	recvs  map[fakeKey][]*fakeReq

	barrierGen   int
	barrierCount int
}

type fakeKey struct {
	src, dst, tag int
}

type fakeMsg struct {
	n    int
	data []byte // nil for a length-only message
}

type fakeReq struct {
	w     *fakeWorld
	kind  string
	done  bool
	bytes int
	n     int    // receive capacity
	buf   []byte // nil for a length-only receive
}

func (r *fakeReq) Done() bool {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	return r.done
}

func (r *fakeReq) Bytes() int {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	return r.bytes
}

func newFakeWorld(size int) *fakeWorld {
	w := &fakeWorld{
		size:   size,
		queues: make(map[fakeKey][]*fakeMsg),
		recvs:  make(map[fakeKey][]*fakeReq),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// run executes fn once per rank on its own goroutine and waits for all.
func (w *fakeWorld) run(fn func(m core.Machine)) {
	var wg sync.WaitGroup
	for rank := 0; rank < w.size; rank++ {
		m := &fakeMachine{w: w, rank: rank}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(m)
		}()
	}
	wg.Wait()
}

type fakeMachine struct {
	w     *fakeWorld
	rank  int
	clock time.Duration
}

func (m *fakeMachine) Rank() int          { return m.rank }
func (m *fakeMachine) Size() int          { return m.w.size }
func (m *fakeMachine) Now() time.Duration { return m.clock }

func (m *fakeMachine) Work(iters int64) { m.clock += time.Duration(iters) }

func (m *fakeMachine) Isend(dst, tag int, data []byte) core.Request {
	return m.send(dst, tag, &fakeMsg{n: len(data), data: append([]byte(nil), data...)})
}

func (m *fakeMachine) IsendLen(dst, tag, n int) core.Request {
	return m.send(dst, tag, &fakeMsg{n: n})
}

func (m *fakeMachine) send(dst, tag int, msg *fakeMsg) core.Request {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	key := fakeKey{src: m.rank, dst: dst, tag: tag}
	if pending := w.recvs[key]; len(pending) > 0 {
		r := pending[0]
		w.recvs[key] = pending[1:]
		r.land(msg)
		w.cond.Broadcast()
	} else {
		w.queues[key] = append(w.queues[key], msg)
	}
	return &fakeReq{w: w, kind: "send", done: true, bytes: msg.n}
}

// land completes the receive with msg: count min(message size, capacity).
func (r *fakeReq) land(msg *fakeMsg) {
	copy(r.buf, msg.data)
	r.bytes = min(msg.n, r.n)
	r.done = true
}

func (m *fakeMachine) Irecv(src, tag int, buf []byte) core.Request {
	return m.recv(src, tag, &fakeReq{w: m.w, kind: "recv", n: len(buf), buf: buf})
}

func (m *fakeMachine) IrecvLen(src, tag, n int) core.Request {
	return m.recv(src, tag, &fakeReq{w: m.w, kind: "recv", n: n})
}

func (m *fakeMachine) recv(src, tag int, r *fakeReq) core.Request {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	key := fakeKey{src: src, dst: m.rank, tag: tag}
	if q := w.queues[key]; len(q) > 0 {
		msg := q[0]
		w.queues[key] = q[1:]
		r.land(msg)
	} else {
		w.recvs[key] = append(w.recvs[key], r)
	}
	return r
}

func (m *fakeMachine) Test(r core.Request) bool { return r.Done() }

func (m *fakeMachine) Wait(r core.Request) {
	fr := r.(*fakeReq)
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	for !fr.done {
		w.cond.Wait()
	}
}

func (m *fakeMachine) Waitany(rs []core.Request) int {
	if len(rs) == 0 {
		panic("fake: Waitany with no requests")
	}
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for i, r := range rs {
			if r.(*fakeReq).done {
				return i
			}
		}
		w.cond.Wait()
	}
}

func (m *fakeMachine) Waitall(rs []core.Request) {
	for _, r := range rs {
		m.Wait(r)
	}
}

func (m *fakeMachine) Barrier() {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	gen := w.barrierGen
	w.barrierCount++
	if w.barrierCount == w.size {
		w.barrierCount = 0
		w.barrierGen++
		w.cond.Broadcast()
		return
	}
	for gen == w.barrierGen {
		w.cond.Wait()
	}
}

// sanity check that fakeMachine satisfies the interface.
var _ core.Machine = (*fakeMachine)(nil)

// fmt is used by some tests via Errorf-style helpers.
var _ = fmt.Sprintf
