package rtm

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"comb/internal/core"
)

// Mode selects the progress discipline.
type Mode int

// Progress disciplines.
const (
	// Offload progresses messages independently of MPI calls.
	Offload Mode = iota
	// Library progresses messages only inside MPI calls.
	Library
)

// String names the mode.
func (m Mode) String() string {
	if m == Library {
		return "library"
	}
	return "offload"
}

// World is a set of real-time ranks wired together in-process.
type World struct {
	size  int
	mode  Mode
	start time.Time
	ranks []*Machine

	barrierMu    sync.Mutex
	barrierCond  *sync.Cond
	barrierGen   int
	barrierCount int
}

// NewWorld creates size ranks using the given progress mode.
func NewWorld(size int, mode Mode) *World {
	if size < 1 {
		panic(fmt.Sprintf("rtm: world size %d", size))
	}
	w := &World{size: size, mode: mode, start: time.Now()}
	w.barrierCond = sync.NewCond(&w.barrierMu)
	for rank := 0; rank < size; rank++ {
		m := &Machine{w: w, rank: rank}
		m.cond = sync.NewCond(&m.mu)
		w.ranks = append(w.ranks, m)
	}
	return w
}

// Run executes fn once per rank on its own goroutine and returns when all
// ranks finish.  Offload worlds run a progress goroutine per rank for the
// duration.
func (w *World) Run(fn func(m core.Machine)) {
	stop := make(chan struct{})
	var progress sync.WaitGroup
	if w.mode == Offload {
		for _, m := range w.ranks {
			m := m
			progress.Add(1)
			go func() {
				defer progress.Done()
				m.progressLoop(stop)
			}()
		}
	}
	var wg sync.WaitGroup
	for _, m := range w.ranks {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(m)
		}()
	}
	wg.Wait()
	close(stop)
	if w.mode == Offload {
		// Wake progress loops so they observe the stop signal.
		for _, m := range w.ranks {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		}
		progress.Wait()
	}
}

// message is one in-flight message: its length, and its bytes unless it
// is length-only.
type message struct {
	src, tag int
	n        int
	data     []byte
}

// request implements core.Request.
type request struct {
	m     *Machine
	kind  int // 0 send, 1 recv
	src   int
	tag   int
	n     int    // receive capacity
	buf   []byte // nil for a length-only receive
	done  bool
	bytes int
}

// Done implements core.Request.
func (r *request) Done() bool {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	return r.done
}

// Bytes implements core.Request.
func (r *request) Bytes() int {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	return r.bytes
}

// Machine is one real-time rank.
type Machine struct {
	w    *World
	rank int

	mu         sync.Mutex
	cond       *sync.Cond
	staging    []*message // arrived, not yet matched
	posted     []*request // posted receives
	unexpected []*message // matched against future receives
}

var _ core.Machine = (*Machine)(nil)

// Rank implements core.Machine.
func (m *Machine) Rank() int { return m.rank }

// Size implements core.Machine.
func (m *Machine) Size() int { return m.w.size }

// Now implements core.Machine with the wall clock.
func (m *Machine) Now() time.Duration { return time.Since(m.w.start) }

// spinSink defeats dead-code elimination of the work loop.
var spinSink int64

// spin is the calibrated empty loop shared by Work and Calibrate.
func spin(iters int64) {
	var acc int64
	for i := int64(0); i < iters; i++ {
		acc += i ^ (i >> 3)
	}
	spinSink += acc
}

// Work implements core.Machine: a genuine spin loop.
func (m *Machine) Work(iters int64) { spin(iters) }

// Calibrate measures this host's cost of one work-loop iteration — the
// real-time equivalent of the simulator's IterCost (2 ns on the paper's
// 500 MHz machine).  It takes the minimum of several short timed spins to
// shed scheduler noise.
func Calibrate() time.Duration {
	const iters = 5_000_000
	best := time.Duration(1<<62 - 1)
	for trial := 0; trial < 5; trial++ {
		t0 := time.Now()
		spin(iters)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	per := best / iters
	if per < 1 {
		per = 1 // sub-ns loops still cost something; report the floor
	}
	return per
}

// Isend implements core.Machine: the payload is copied out immediately
// (buffered send), so the request completes at once; delivery follows the
// world's progress discipline on the receiving side.
func (m *Machine) Isend(dst, tag int, data []byte) core.Request {
	return m.send(dst, &message{src: m.rank, tag: tag, n: len(data), data: append([]byte(nil), data...)})
}

// IsendLen implements core.Machine: an n-byte message with no bytes.
func (m *Machine) IsendLen(dst, tag, n int) core.Request {
	return m.send(dst, &message{src: m.rank, tag: tag, n: n})
}

func (m *Machine) send(dst int, msg *message) core.Request {
	peer := m.w.ranks[dst]
	peer.mu.Lock()
	peer.staging = append(peer.staging, msg)
	peer.cond.Broadcast()
	peer.mu.Unlock()
	return &request{m: m, kind: 0, done: true, bytes: msg.n}
}

// Irecv implements core.Machine.
func (m *Machine) Irecv(src, tag int, buf []byte) core.Request {
	return m.recv(&request{m: m, kind: 1, src: src, tag: tag, n: len(buf), buf: buf})
}

// IrecvLen implements core.Machine: a receive of capacity n that keeps no
// bytes.
func (m *Machine) IrecvLen(src, tag, n int) core.Request {
	return m.recv(&request{m: m, kind: 1, src: src, tag: tag, n: n})
}

func (m *Machine) recv(r *request) core.Request {
	m.mu.Lock()
	m.posted = append(m.posted, r)
	if m.w.mode == Library {
		m.drainLocked()
	} else {
		// Let the progress goroutine look again.
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	return r
}

// matches applies the matching rule.  COMB addresses peers and tags
// explicitly, so the real-time machine supports exact matching only.
func (r *request) matches(msg *message) bool {
	return r.src == msg.src && r.tag == msg.tag
}

// drainLocked matches posted receives against the unexpected queue, then
// moves staged messages to posted receives or the unexpected queue.
// Unexpected messages arrived before anything staged, so they must be
// offered to a receive first: MPI forbids a later message with the same
// source and tag from overtaking an earlier one.  Caller holds m.mu.
func (m *Machine) drainLocked() {
	keep := m.unexpected[:0]
	for _, msg := range m.unexpected {
		if !m.matchPostedLocked(msg) {
			keep = append(keep, msg)
		}
	}
	m.unexpected = keep
	for _, msg := range m.staging {
		m.deliverLocked(msg)
	}
	m.staging = m.staging[:0]
}

func (m *Machine) deliverLocked(msg *message) {
	if m.matchPostedLocked(msg) {
		return
	}
	m.unexpected = append(m.unexpected, msg)
}

func (m *Machine) matchPostedLocked(msg *message) bool {
	for i, r := range m.posted {
		if r.matches(msg) {
			m.posted = append(m.posted[:i], m.posted[i+1:]...)
			copy(r.buf, msg.data)
			r.bytes = min(msg.n, r.n)
			r.done = true
			m.cond.Broadcast()
			return true
		}
	}
	return false
}

// progressLoop is the offload-mode progress engine for one rank.
func (m *Machine) progressLoop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		m.mu.Lock()
		m.drainLocked()
		if len(m.staging) == 0 {
			m.cond.Wait()
		}
		m.mu.Unlock()
	}
}

// Test implements core.Machine.
func (m *Machine) Test(r core.Request) bool {
	req := r.(*request)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.w.mode == Library {
		m.drainLocked()
	}
	return req.done
}

// Wait implements core.Machine.  In library mode it busy-polls — exactly
// how OS-bypass MPI implementations wait; in offload mode it blocks.
func (m *Machine) Wait(r core.Request) {
	req := r.(*request)
	for {
		m.mu.Lock()
		if m.w.mode == Library {
			m.drainLocked()
		}
		if req.done {
			m.mu.Unlock()
			return
		}
		if m.w.mode == Offload {
			m.cond.Wait()
			m.mu.Unlock()
			continue
		}
		m.mu.Unlock()
		runtime.Gosched()
	}
}

// Waitany implements core.Machine.
func (m *Machine) Waitany(rs []core.Request) int {
	if len(rs) == 0 {
		panic("rtm: Waitany with no requests")
	}
	for {
		m.mu.Lock()
		if m.w.mode == Library {
			m.drainLocked()
		}
		for i, r := range rs {
			if r.(*request).done {
				m.mu.Unlock()
				return i
			}
		}
		if m.w.mode == Offload {
			m.cond.Wait()
			m.mu.Unlock()
			continue
		}
		m.mu.Unlock()
		runtime.Gosched()
	}
}

// Waitall implements core.Machine.
func (m *Machine) Waitall(rs []core.Request) {
	for _, r := range rs {
		m.Wait(r)
	}
}

// Barrier implements core.Machine.
func (m *Machine) Barrier() {
	w := m.w
	w.barrierMu.Lock()
	defer w.barrierMu.Unlock()
	gen := w.barrierGen
	w.barrierCount++
	if w.barrierCount == w.size {
		w.barrierCount = 0
		w.barrierGen++
		w.barrierCond.Broadcast()
		return
	}
	for gen == w.barrierGen {
		w.barrierCond.Wait()
	}
}
