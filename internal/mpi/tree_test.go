package mpi

import (
	"reflect"
	"strings"
	"testing"
)

// White-box structural tests: the binomial schedules used by both the
// blocking collectives and the CollReq machinery must form a spanning
// tree over the ranks — every non-root receives exactly once, every
// edge has matching send and recv endpoints, and every rank is
// reachable from the root.  Non-power-of-two sizes exercise the
// truncated subtrees.

func treeSizes() []int { return []int{1, 2, 3, 5, 6, 7, 11, 12} }

// edge is one tree link, from parent to child.
type edge struct{ parent, child int }

// bcastEdges collects the send edges of every rank's broadcast schedule.
func bcastEdges(size, root int) (edges []edge, recvsPerRank []int) {
	recvsPerRank = make([]int, size)
	for rank := 0; rank < size; rank++ {
		c := &Comm{rank: rank, size: size}
		stages := appendBcastStages(nil, c, root, 1, 8, make([]byte, 8))
		for _, ops := range stages {
			for _, op := range ops {
				if op.send {
					edges = append(edges, edge{parent: rank, child: op.peer})
				} else {
					recvsPerRank[rank]++
				}
			}
		}
	}
	return edges, recvsPerRank
}

// reduceEdges collects the send edges of every rank's reduce schedule
// (child to parent, toward rank 0).  Every receive must carry a
// combining contribution; allCombine reports that.
func reduceEdges(size int) (edges []edge, recvsPerRank []int, allCombine bool) {
	recvsPerRank = make([]int, size)
	allCombine = true
	for rank := 0; rank < size; rank++ {
		c := &Comm{rank: rank, size: size}
		stages := appendReduceStages(nil, c, 1, 8, make([]byte, 8))
		for _, ops := range stages {
			for _, op := range ops {
				if op.send {
					edges = append(edges, edge{parent: op.peer, child: rank})
				} else {
					allCombine = allCombine && op.combine
					recvsPerRank[rank]++
				}
			}
		}
	}
	return edges, recvsPerRank, allCombine
}

// checkSpanningTree asserts edges form a tree rooted at root covering
// all size ranks, and returns each rank's child count.
func checkSpanningTree(t *testing.T, size, root int, edges []edge) (children []int) {
	t.Helper()
	if len(edges) != size-1 {
		t.Fatalf("size %d root %d: %d edges, want %d", size, root, len(edges), size-1)
	}
	children = make([]int, size)
	parent := make(map[int]int, size)
	for _, e := range edges {
		if _, dup := parent[e.child]; dup {
			t.Fatalf("size %d root %d: rank %d has two parents", size, root, e.child)
		}
		parent[e.child] = e.parent
		children[e.parent]++
	}
	for rank := 0; rank < size; rank++ {
		// Walk to the root; a cycle or a missing edge would spin or dead-end.
		r, hops := rank, 0
		for r != root {
			p, ok := parent[r]
			if !ok {
				t.Fatalf("size %d root %d: rank %d unreachable (stuck at %d)", size, root, rank, r)
			}
			r = p
			if hops++; hops > size {
				t.Fatalf("size %d root %d: cycle reaching root from rank %d", size, root, rank)
			}
		}
	}
	return children
}

func TestBcastTreeShape(t *testing.T) {
	for _, size := range treeSizes() {
		for root := 0; root < size; root++ {
			edges, recvs := bcastEdges(size, root)
			checkSpanningTree(t, size, root, edges)
			// Broadcast flows down the tree: every non-root receives once.
			for rank, n := range recvs {
				want := 1
				if rank == root {
					want = 0
				}
				if n != want {
					t.Fatalf("size %d root %d: rank %d posts %d recvs, want %d", size, root, rank, n, want)
				}
			}
		}
	}
}

func TestReduceTreeShape(t *testing.T) {
	for _, size := range treeSizes() {
		edges, recvs, allCombine := reduceEdges(size)
		children := checkSpanningTree(t, size, 0, edges)
		if !allCombine {
			t.Fatalf("size %d: reduce receive without a combining contribution", size)
		}
		// Reduce flows up the tree: a rank receives once per child.
		for rank, n := range recvs {
			if n != children[rank] {
				t.Fatalf("size %d: rank %d posts %d recvs, want %d (children)", size, rank, n, children[rank])
			}
		}
	}
}

// TestAllreduceTreeShape pins the Iallreduce composition: a reduce
// schedule toward rank 0 followed by a broadcast schedule from rank 0,
// with the phases on distinct tags so their matching spaces never mix.
func TestAllreduceTreeShape(t *testing.T) {
	for _, size := range treeSizes() {
		for rank := 0; rank < size; rank++ {
			c := &Comm{rank: rank, size: size}
			reduceLen := len(appendReduceStages(nil, c, 1, 8, make([]byte, 8)))
			stages := appendReduceStages(nil, c, 1, 8, make([]byte, 8))
			stages = appendBcastStages(stages, c, 0, 2, 8, make([]byte, 8))
			for i, ops := range stages {
				wantTag := 1
				if i >= reduceLen {
					wantTag = 2
				}
				for _, op := range ops {
					if op.tag != wantTag {
						t.Fatalf("size %d rank %d stage %d: tag %d, want %d",
							size, rank, i, op.tag, wantTag)
					}
				}
			}
			// The reduce send (if any) precedes every broadcast op.
			sentReduce := false
			for i, ops := range stages {
				for _, op := range ops {
					if op.tag == 1 && op.send {
						sentReduce = true
					}
					if op.tag == 2 && rank != 0 && !op.send && !sentReduce && i < reduceLen {
						t.Fatalf("size %d rank %d: broadcast recv inside reduce phase", size, rank)
					}
				}
			}
		}
	}
}

// TestLengthOnlyScheduleShape pins the one-builder rule: a length-only
// schedule (nil data) is the byte schedule operation for operation, with
// the same peers, tags, lengths and combine marks, and no buffer anywhere.
func TestLengthOnlyScheduleShape(t *testing.T) {
	withoutBufs := func(stages [][]collOp) [][]collOp {
		var out [][]collOp
		for _, ops := range stages {
			ops = append([]collOp(nil), ops...)
			for j := range ops {
				ops[j].buf = nil
			}
			out = append(out, ops)
		}
		return out
	}
	for _, size := range treeSizes() {
		for rank := 0; rank < size; rank++ {
			c := &Comm{rank: rank, size: size}
			for root := 0; root < size; root++ {
				withBytes := appendReduceStages(nil, c, 1, 8, make([]byte, 8))
				withBytes = appendBcastStages(withBytes, c, root, 2, 8, make([]byte, 8))
				lenOnly := appendReduceStages(nil, c, 1, 8, nil)
				lenOnly = appendBcastStages(lenOnly, c, root, 2, 8, nil)
				if want := withoutBufs(withBytes); !reflect.DeepEqual(lenOnly, want) {
					t.Fatalf("size %d rank %d root %d: length-only schedule %+v, want %+v",
						size, rank, root, lenOnly, want)
				}
			}
		}
	}
}

// TestCollTagWideSequence is the wraparound regression: the pre-fix
// sequence space wrapped at 1<<16 invocations, aliasing tags across
// in-flight collectives.  Tags must now stay strictly increasing and
// distinct far beyond that boundary.
func TestCollTagWideSequence(t *testing.T) {
	c := &Comm{size: 8}
	c.collSeq = 1<<16 - 4 // straddle the old wrap boundary
	prev := 0
	for i := 0; i < 16; i++ {
		for _, kind := range []int{collBcast, collReduce, collGather, collAllreduce} {
			seq := c.collSeq
			tag := collBase + (seq+1)*collKinds + kind
			if got := c.collTag(kind); got != tag {
				t.Fatalf("collTag(%d) at seq %d = %d, want %d", kind, seq, got, tag)
			}
			if tag <= prev {
				t.Fatalf("tag %d not strictly increasing past %d (seq %d)", tag, prev, seq)
			}
			prev = tag
		}
	}
	if c.collSeq <= 1<<16 {
		t.Fatalf("sequence %d did not cross the old 1<<16 boundary", c.collSeq)
	}
}

// TestCollTagExhaustionPanics pins the failure mode at the widened
// bound: exhausting the sequence space panics instead of aliasing.
func TestCollTagExhaustionPanics(t *testing.T) {
	c := &Comm{size: 8}
	c.collSeq = collSeqLimit
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("collTag past collSeqLimit did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "sequence space exhausted") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.collTag(collBcast)
}

// TestCollTagAboveBarrierSpace pins the reserved-range layout: every
// collective tag clears both the application space and the barrier's
// 2^20 slice above TagUpper.
func TestCollTagAboveBarrierSpace(t *testing.T) {
	c := &Comm{size: 8}
	if tag := c.collTag(collBcast); tag <= TagUpper+(1<<20) {
		t.Fatalf("collective tag %d inside barrier/application space", tag)
	}
}
