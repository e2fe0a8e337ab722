package mpi

import (
	"fmt"

	"comb/internal/sim"
)

// TagUpper is the first tag value reserved for library-internal traffic
// (the barrier).  Applications must use tags below it.
const TagUpper = 1 << 30

// Comm is a communicator: the user-facing MPI handle for one rank.
type Comm struct {
	rank int
	size int
	env  *sim.Env
	ep   Endpoint

	barrierSeq int
	collSeq    int

	// collStarted/collDone count collective operations initiated and
	// completed on this rank (barriers, blocking collectives, and
	// nonblocking CollReqs).  The invariant checker compares them per
	// rank and across ranks: collectives are called by every rank in the
	// same order, so the counts must agree.
	collStarted int64
	collDone    int64

	// meter, when set, counts every posted and completed request on this
	// rank (the invariant checker's conservation bookkeeping).
	meter *Meter
}

// NewComm binds a communicator for rank (of size) to an endpoint.
func NewComm(env *sim.Env, rank, size int, ep Endpoint) *Comm {
	return &Comm{rank: rank, size: size, env: env, ep: ep}
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Endpoint returns the transport endpoint backing this communicator.
func (c *Comm) Endpoint() Endpoint { return c.ep }

// Isend starts a non-blocking send of data to rank dst with the given tag
// and returns its request.  The payload is captured at call time, so the
// caller may reuse the slice once the request completes.
func (c *Comm) Isend(p *sim.Proc, dst, tag int, data []byte) *Request {
	return c.isend(p, dst, tag, len(data), data)
}

// IsendLen starts a length-only send: an n-byte message that carries no
// bytes.  Transports charge it exactly as an Isend of n bytes; only the
// payload copies are skipped.  Bulk streams whose contents nothing reads
// use it.
func (c *Comm) IsendLen(p *sim.Proc, dst, tag, n int) *Request {
	return c.isend(p, dst, tag, n, nil)
}

// Irecv posts a non-blocking receive into buf from rank src (or AnySource)
// with the given tag (or AnyTag) and returns its request.
func (c *Comm) Irecv(p *sim.Proc, src, tag int, buf []byte) *Request {
	return c.irecv(p, src, tag, len(buf), buf)
}

// IrecvLen posts a length-only receive of capacity n: it matches and
// completes like an Irecv into an n-byte buffer, with count min(message
// size, n), but keeps no bytes.
func (c *Comm) IrecvLen(p *sim.Proc, src, tag, n int) *Request {
	return c.irecv(p, src, tag, n, nil)
}

func (c *Comm) isend(p *sim.Proc, dst, tag, n int, data []byte) *Request {
	c.checkRank(dst)
	c.checkTag(tag)
	c.checkLen(n)
	return c.postSend(p, dst, tag, n, data)
}

func (c *Comm) irecv(p *sim.Proc, src, tag, n int, buf []byte) *Request {
	if src != AnySource {
		c.checkRank(src)
	}
	if tag != AnyTag {
		c.checkTag(tag)
	}
	c.checkLen(n)
	return c.postRecv(p, src, tag, n, buf)
}

// postSend / postRecv post an n-byte request without validating it, so
// library-internal traffic can use the reserved tag space.  A nil data or
// buf makes the request length-only.
func (c *Comm) postSend(p *sim.Proc, dst, tag, n int, data []byte) *Request {
	return c.post(p, &Request{kind: KindSend, peer: dst, tag: tag, n: n, data: data})
}

func (c *Comm) postRecv(p *sim.Proc, src, tag, n int, buf []byte) *Request {
	return c.post(p, &Request{kind: KindRecv, peer: src, tag: tag, n: n, buf: buf})
}

// post stamps r, counts it on the meter and hands it to the endpoint.
// Every request, application or library-internal, goes through here, so
// conservation accounting covers internal traffic exactly like
// application traffic.
func (c *Comm) post(p *sim.Proc, r *Request) *Request {
	r.comm, r.postedAt = c, c.env.Now()
	if c.meter != nil {
		c.meter.posted(r.kind)
	}
	if r.kind == KindSend {
		c.ep.Isend(p, r)
	} else {
		c.ep.Irecv(p, r)
	}
	return r
}

// Test gives the library a progress opportunity and reports whether r has
// completed (MPI_Test).
func (c *Comm) Test(p *sim.Proc, r *Request) bool {
	c.ep.Progress(p)
	return r.done
}

// Wait blocks until r completes (MPI_Wait).  Library-driven endpoints
// progress communication from inside this call; offloaded endpoints simply
// park until the completion flag is set.
func (c *Comm) Wait(p *sim.Proc, r *Request) {
	c.block(p, func() bool { return c.Test(p, r) })
}

// Waitall blocks until every request completes (MPI_Waitall).
func (c *Comm) Waitall(p *sim.Proc, rs []*Request) {
	c.block(p, func() bool {
		c.ep.Progress(p)
		for _, r := range rs {
			if !r.done {
				return false
			}
		}
		return true
	})
}

// Waitany blocks until at least one of rs has completed and returns the
// lowest completed index (MPI_Waitany).  Callers typically replace the
// returned slot with a fresh request.
func (c *Comm) Waitany(p *sim.Proc, rs []*Request) int {
	if len(rs) == 0 {
		panic("mpi: Waitany with no requests")
	}
	i := -1
	c.block(p, func() bool {
		c.ep.Progress(p)
		for k, r := range rs {
			if r.done {
				i = k
				return true
			}
		}
		return false
	})
	return i
}

// block is the one wait loop of every blocking call.  It reads the
// endpoint's activity generation, then runs ready, which gives the
// library its progress opportunity and checks what the call waits for,
// and until ready reports true parks on the generation it read.  A
// change that ready's own progress made, or that landed meanwhile, has
// already moved the generation, so the park returns at once and the
// loop checks again.
func (c *Comm) block(p *sim.Proc, ready func() bool) {
	act := c.ep.Activity()
	for {
		gen := act.Gen()
		if ready() {
			return
		}
		act.Wait(p, gen)
	}
}

// Iprobe checks — without receiving — whether a message matching (src,
// tag) has arrived and is waiting unexpected (MPI_Iprobe).  Wildcards are
// allowed.  It returns the envelope's status when one is pending.
func (c *Comm) Iprobe(p *sim.Proc, src, tag int) (Status, bool) {
	c.ep.Progress(p)
	if in := c.ep.MatchState().Peek(src, tag); in != nil {
		return Status{Source: in.Src, Tag: in.Tag, Count: in.Size}, true
	}
	return Status{}, false
}

// Probe blocks until a message matching (src, tag) is pending and returns
// its envelope without receiving it (MPI_Probe).
func (c *Comm) Probe(p *sim.Proc, src, tag int) Status {
	var st Status
	c.block(p, func() bool {
		var ok bool
		st, ok = c.Iprobe(p, src, tag)
		return ok
	})
	return st
}

// Sendrecv runs a send and a receive concurrently and returns the
// receive's status (MPI_Sendrecv) — the deadlock-free exchange idiom.
func (c *Comm) Sendrecv(p *sim.Proc, dst, sendTag int, data []byte, src, recvTag int, buf []byte) Status {
	rr := c.Irecv(p, src, recvTag, buf)
	sr := c.Isend(p, dst, sendTag, data)
	c.Waitall(p, []*Request{rr, sr})
	return rr.status
}

// Send is the blocking send (MPI_Send): Isend followed by Wait.
func (c *Comm) Send(p *sim.Proc, dst, tag int, data []byte) {
	c.Wait(p, c.Isend(p, dst, tag, data))
}

// Recv is the blocking receive (MPI_Recv): Irecv followed by Wait.
func (c *Comm) Recv(p *sim.Proc, src, tag int, buf []byte) Status {
	r := c.Irecv(p, src, tag, buf)
	c.Wait(p, r)
	return r.status
}

// CollStats reports how many collective operations this rank started
// and finished (barriers, blocking collectives, nonblocking CollReqs).
// Every collective must be driven to completion, and every rank calls
// the same collectives in the same order, so started == done per rank
// and the counts agree across ranks — the invariant checker's
// "conservation/collectives" rule.
func (c *Comm) CollStats() (started, done int64) { return c.collStarted, c.collDone }

// Barrier synchronizes all ranks with a linear gather to rank 0 followed
// by a broadcast, using a reserved tag space.  Its tokens are length-only
// 1-byte messages: nothing reads them.
func (c *Comm) Barrier(p *sim.Proc) {
	tag := TagUpper + c.barrierSeq%(1<<20)
	c.barrierSeq++
	c.collStarted++
	defer func() { c.collDone++ }()
	if c.size == 1 {
		return
	}
	if c.rank == 0 {
		for src := 1; src < c.size; src++ {
			c.Wait(p, c.postRecv(p, src, tag, 1, nil))
		}
		for dst := 1; dst < c.size; dst++ {
			c.Wait(p, c.postSend(p, dst, tag, 1, nil))
		}
	} else {
		c.Wait(p, c.postSend(p, 0, tag, 1, nil))
		c.Wait(p, c.postRecv(p, 0, tag, 1, nil))
	}
}

// sendInternal / recvInternal are the blocking byte forms of postSend /
// postRecv.
func (c *Comm) sendInternal(p *sim.Proc, dst, tag int, data []byte) {
	c.Wait(p, c.postSend(p, dst, tag, len(data), data))
}

func (c *Comm) recvInternal(p *sim.Proc, src, tag int, buf []byte) {
	c.Wait(p, c.postRecv(p, src, tag, len(buf), buf))
}

func (c *Comm) checkRank(rank int) {
	if rank < 0 || rank >= c.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, c.size))
	}
}

func (c *Comm) checkTag(tag int) {
	if tag < 0 || tag >= TagUpper {
		panic(fmt.Sprintf("mpi: tag %d out of range [0,%d)", tag, TagUpper))
	}
}

func (c *Comm) checkLen(n int) {
	if n < 0 {
		panic(fmt.Sprintf("mpi: negative message length %d", n))
	}
}
