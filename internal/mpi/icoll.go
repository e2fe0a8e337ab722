package mpi

import (
	"fmt"

	"comb/internal/sim"
)

// Nonblocking collectives (MPI_Ibcast / MPI_Iallreduce shape): the caller
// posts the collective, overlaps arbitrary computation, and drives it to
// completion with CollTest or CollWait.  This is what makes collective
// overlap measurable — the blocking collectives in collectives.go never
// expose the window between initiation and completion.
//
// A CollReq is a staged schedule over the same binomial trees the
// blocking collectives walk.  Each stage posts all of its point-to-point
// requests at once (child sends of one round share a stage, so the
// fan-out overlaps on the wire); the next stage posts only when every
// request of the current one has completed.  Receives that carry a
// combining contribution buffer their payload and are folded into the
// caller's data in fixed stage-and-operation order once the stage
// completes — completion order never reaches the combine, so results are
// bit-identical however arrivals race.
//
// Like their blocking namesakes, all ranks must call each collective in
// the same order, and every CollReq must be driven to completion (the
// invariant checker's conservation/collectives rule counts both ends).

// collOp is one point-to-point operation of a stage.
type collOp struct {
	send bool
	peer int
	tag  int
	n    int // payload length: a send's size, a receive's capacity
	// buf is the payload (send) or destination buffer (recv); nil when
	// length-only.  Combining receives land in a private buffer and fold
	// into CollReq.data.
	buf []byte
	// combine marks a receive whose payload is merged into the
	// collective's data once its stage completes.
	combine bool
}

// CollReq is one in-flight nonblocking collective.
type CollReq struct {
	comm    *Comm
	stages  [][]collOp
	stage   int        // index of the posted stage; len(stages) when done
	reqs    []*Request // in-flight requests of the posted stage
	data    []byte
	combine Combine // nil when nothing is folded
}

// Done reports whether the collective has completed.  It gives the
// library no progress opportunity; poll with CollTest for that.
func (r *CollReq) Done() bool { return r.stage >= len(r.stages) }

// Ibcast starts a nonblocking broadcast of root's data to every rank
// (binomial tree, same shape as Bcast) and returns its request.  On the
// root, data is the source; elsewhere it receives the payload.  Drive
// the request with CollTest or CollWait.
func (c *Comm) Ibcast(p *sim.Proc, root int, data []byte) *CollReq {
	return c.ibcast(p, root, len(data), data)
}

// IbcastLen starts a length-only broadcast of n bytes from root (DESIGN.md
// §5l): the schedule and the costs of an Ibcast of n bytes, with no bytes
// moved.
func (c *Comm) IbcastLen(p *sim.Proc, root, n int) *CollReq {
	return c.ibcast(p, root, n, nil)
}

func (c *Comm) ibcast(p *sim.Proc, root, n int, data []byte) *CollReq {
	c.checkRank(root)
	c.checkLen(n)
	tag := c.collTag(collBcast)
	c.collStarted++
	r := &CollReq{comm: c, data: data}
	r.stages = appendBcastStages(r.stages, c, root, tag, n, data)
	c.startColl(p, r)
	return r
}

// Iallreduce starts a nonblocking all-reduce (binomial-tree reduce to
// rank 0, then binomial-tree broadcast — the same schedule as the
// blocking Allreduce) and returns its request.  data is contribution and
// result on every rank; combine must be associative and commutative.
func (c *Comm) Iallreduce(p *sim.Proc, data []byte, combine Combine) *CollReq {
	if combine == nil {
		panic("mpi: Iallreduce needs a combine function")
	}
	return c.iallreduce(p, len(data), data, combine)
}

// IallreduceLen starts a length-only all-reduce of n bytes: the schedule
// and the costs of an Iallreduce of n bytes, with no bytes moved and
// nothing combined.
func (c *Comm) IallreduceLen(p *sim.Proc, n int) *CollReq {
	return c.iallreduce(p, n, nil, nil)
}

func (c *Comm) iallreduce(p *sim.Proc, n int, data []byte, combine Combine) *CollReq {
	c.checkLen(n)
	// Two tags, exactly like the blocking Reduce-then-Bcast pair: the
	// reduce and broadcast phases are distinct matching spaces.
	rtag := c.collTag(collReduce)
	btag := c.collTag(collBcast)
	c.collStarted++
	r := &CollReq{comm: c, data: data, combine: combine}
	r.stages = appendReduceStages(r.stages, c, rtag, n, data)
	r.stages = appendBcastStages(r.stages, c, 0, btag, n, data)
	c.startColl(p, r)
	return r
}

// appendReduceStages appends the binomial reduce schedule toward rank 0:
// a rank receives one contribution from each subtree child (all posted
// in one stage, combined in mask order), then forwards its accumulated
// value to its parent.  Every operation is n bytes long; with nil data
// the schedule is length-only and its receives get no buffer.
func appendReduceStages(stages [][]collOp, c *Comm, tag, n int, data []byte) [][]collOp {
	var recvs []collOp
	mask := 1
	for mask < c.size {
		if c.rank&mask != 0 {
			break
		}
		if src := c.rank + mask; src < c.size {
			op := collOp{peer: src, tag: tag, n: n, combine: true}
			if data != nil {
				op.buf = make([]byte, n)
			}
			recvs = append(recvs, op)
		}
		mask <<= 1
	}
	if len(recvs) > 0 {
		stages = append(stages, recvs)
	}
	if c.rank != 0 {
		stages = append(stages, []collOp{{send: true, peer: c.rank - mask, tag: tag, n: n, buf: data}})
	}
	return stages
}

// appendBcastStages appends the binomial broadcast schedule rooted at
// root: a receive from the tree parent (absent on the root), then every
// child send in one stage.  Every operation is n bytes of data, or
// length-only when data is nil.
func appendBcastStages(stages [][]collOp, c *Comm, root, tag, n int, data []byte) [][]collOp {
	vrank := (c.rank - root + c.size) % c.size
	mask := 1
	for mask < c.size {
		if vrank&mask != 0 {
			src := ((vrank - mask) + root) % c.size
			stages = append(stages, []collOp{{peer: src, tag: tag, n: n, buf: data}})
			break
		}
		mask <<= 1
	}
	var sends []collOp
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := vrank + mask; child < c.size {
			sends = append(sends, collOp{send: true, peer: (child + root) % c.size, tag: tag, n: n, buf: data})
		}
	}
	if len(sends) > 0 {
		stages = append(stages, sends)
	}
	return stages
}

// startColl posts the first stage and advances through any stages that
// complete immediately (a single-rank collective has none at all).
func (c *Comm) startColl(p *sim.Proc, r *CollReq) {
	c.postStage(p, r)
	c.advanceColl(p, r)
}

// postStage posts every operation of the current stage.
func (c *Comm) postStage(p *sim.Proc, r *CollReq) {
	if r.Done() {
		return
	}
	ops := r.stages[r.stage]
	r.reqs = r.reqs[:0]
	for _, op := range ops {
		if op.send {
			r.reqs = append(r.reqs, c.postSend(p, op.peer, op.tag, op.n, op.buf))
		} else {
			r.reqs = append(r.reqs, c.postRecv(p, op.peer, op.tag, op.n, op.buf))
		}
	}
}

// advanceColl retires completed stages: when every request of the posted
// stage is done it folds combining receives into the data (in operation
// order; a length-only collective folds nothing) and posts the next
// stage, repeating while stages keep completing.  It does not call
// Progress — CollTest/CollWait do.
func (c *Comm) advanceColl(p *sim.Proc, r *CollReq) {
	for !r.Done() {
		for _, rq := range r.reqs {
			if !rq.done {
				return
			}
		}
		for _, op := range r.stages[r.stage] {
			if op.combine && r.combine != nil {
				r.combine(r.data, op.buf)
			}
		}
		r.stage++
		if r.Done() {
			c.collDone++
			return
		}
		c.postStage(p, r)
	}
	// Zero-stage schedule (single rank): completed at initiation.
	c.collDone++
}

// CollTest gives the library a progress opportunity, advances the
// collective's schedule as far as completions allow, and reports whether
// it has finished — the MPI_Test of the nonblocking collectives.
func (c *Comm) CollTest(p *sim.Proc, r *CollReq) bool {
	if r.comm != c {
		panic("mpi: CollTest on a foreign communicator's request")
	}
	if r.Done() {
		return true
	}
	c.ep.Progress(p)
	c.advanceColl(p, r)
	return r.Done()
}

// CollWait blocks until the collective completes (MPI_Wait).  Library-
// driven endpoints progress communication from inside this call, exactly
// like Comm.Wait.
func (c *Comm) CollWait(p *sim.Proc, r *CollReq) {
	if r.comm != c {
		panic("mpi: CollWait on a foreign communicator's request")
	}
	for {
		act := c.ep.Activity()
		if c.CollTest(p, r) {
			return
		}
		p.Await(act)
	}
}

func init() {
	// The collective tag space must sit entirely above the barrier's
	// (TagUpper .. TagUpper+2^20); a misordered constant edit would
	// silently cross the streams.
	if collBase <= TagUpper+(1<<20) {
		panic(fmt.Sprintf("mpi: collective tag base %d overlaps the barrier space", collBase))
	}
}
