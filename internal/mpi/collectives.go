package mpi

import (
	"fmt"

	"comb/internal/sim"
)

// Collective operations, built from the point-to-point layer with the
// classic algorithms (binomial trees for broadcast/reduce, linear gather).
// They use the reserved tag space above TagUpper, so they can interleave
// with application traffic.
//
// Like their MPI namesakes, all ranks of the communicator must call each
// collective in the same order.

// collSeqLimit bounds the collective sequence space.  Tags are plain
// ints end to end (matcher, transports, fabric headers), so the space
// is limited only by keeping collBase + seq*collKinds inside a 64-bit
// int with room to spare; 2^40 invocations is unreachable in practice,
// and hitting the bound panics rather than silently aliasing tags
// across in-flight invocations (the pre-fix failure mode at 2^16).
const collSeqLimit = 1 << 40

// collBase is the first tag of the collective tag space, above the
// barrier's slice of the reserved range.
const collBase = TagUpper + (1 << 21)

// collTag derives a reserved tag for one collective invocation.  The
// sequence number keeps distinct invocations from matching each other
// even when ranks race ahead: every invocation gets a tag no earlier
// or later invocation can produce.
func (c *Comm) collTag(kind int) int {
	if c.collSeq >= collSeqLimit {
		panic(fmt.Sprintf("mpi: collective sequence space exhausted after %d invocations", collSeqLimit))
	}
	c.collSeq++
	return collBase + c.collSeq*collKinds + kind
}

// Collective kind codes for tag derivation.
const (
	collBcast = iota + 1
	collReduce
	collGather
	collAllreduce

	// collKinds strides the sequence number past every kind code.
	collKinds
)

// Bcast broadcasts root's data to every rank: on the root, data is the
// source; elsewhere, data receives the payload.  Binomial tree, log2(P)
// rounds.
func (c *Comm) Bcast(p *sim.Proc, root int, data []byte) {
	c.checkRank(root)
	tag := c.collTag(collBcast)
	c.collStarted++
	defer func() { c.collDone++ }()
	// Rotate ranks so the root is virtual rank 0, then run the standard
	// binomial tree: a rank receives from the peer that differs in its
	// lowest set bit, and forwards along every lower bit.
	vrank := (c.rank - root + c.size) % c.size
	mask := 1
	for mask < c.size {
		if vrank&mask != 0 {
			src := ((vrank - mask) + root) % c.size
			c.recvInternal(p, src, tag, data)
			break
		}
		mask <<= 1
	}
	// Forward to children: all higher bits not yet covered.
	mask >>= 1
	for mask > 0 {
		child := vrank + mask
		if child < c.size {
			dst := (child + root) % c.size
			c.sendInternal(p, dst, tag, data)
		}
		mask >>= 1
	}
}

// Combine merges a contribution into an accumulator in place (the MPI_Op
// of this reduced API).  It must be associative and commutative: the tree
// order in which contributions meet is rank-layout dependent.
type Combine func(acc, contribution []byte)

// Reduce combines every rank's data at the root using combine.  On the
// root, data is both the local contribution and the result buffer; on
// other ranks it is the contribution only.  Binomial tree.
func (c *Comm) Reduce(p *sim.Proc, root int, data []byte, combine Combine) {
	c.checkRank(root)
	if combine == nil {
		panic("mpi: Reduce needs a combine function")
	}
	tag := c.collTag(collReduce)
	c.collStarted++
	defer func() { c.collDone++ }()
	vrank := (c.rank - root + c.size) % c.size
	tmp := make([]byte, len(data))
	mask := 1
	for mask < c.size {
		if vrank&mask != 0 {
			dst := ((vrank - mask) + root) % c.size
			c.sendInternal(p, dst, tag, data)
			return
		}
		src := vrank + mask
		if src < c.size {
			from := (src + root) % c.size
			c.recvInternal(p, from, tag, tmp)
			combine(data, tmp)
		}
		mask <<= 1
	}
}

// Allreduce combines every rank's data everywhere: Reduce to rank 0, then
// Bcast.  data is contribution and result on every rank.
func (c *Comm) Allreduce(p *sim.Proc, data []byte, combine Combine) {
	c.Reduce(p, 0, data, combine)
	c.Bcast(p, 0, data)
}

// Gather concentrates every rank's data at the root.  On the root, out
// must hold Size()*len(data) bytes and receives the contributions in rank
// order (the root's own data included); elsewhere out is ignored.
func (c *Comm) Gather(p *sim.Proc, root int, data, out []byte) {
	c.checkRank(root)
	tag := c.collTag(collGather)
	c.collStarted++
	defer func() { c.collDone++ }()
	if c.rank != root {
		c.sendInternal(p, root, tag, data)
		return
	}
	n := len(data)
	if len(out) < n*c.size {
		panic(fmt.Sprintf("mpi: Gather root buffer %d < %d", len(out), n*c.size))
	}
	copy(out[root*n:], data)
	// Post all receives, then wait: arrivals may come in any rank order.
	reqs := make([]*Request, 0, c.size-1)
	for src := 0; src < c.size; src++ {
		if src == root {
			continue
		}
		reqs = append(reqs, c.postRecv(p, src, tag, n, out[src*n:(src+1)*n]))
	}
	c.Waitall(p, reqs)
}
