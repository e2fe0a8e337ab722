package mpi

import (
	"testing"
	"testing/quick"
)

func recvReq(src, tag int) *Request {
	return &Request{kind: KindRecv, peer: src, tag: tag, n: 64, buf: make([]byte, 64)}
}

func TestMatcherExactMatch(t *testing.T) {
	var m Matcher
	r := recvReq(1, 7)
	if m.PostRecv(r) != nil {
		t.Fatal("empty UMQ should not match")
	}
	in := &Inbound{Src: 1, Tag: 7, Size: 4, Data: []byte("abcd")}
	if got := m.Arrive(in); got != r {
		t.Fatalf("Arrive matched %v, want posted request", got)
	}
	if m.PostedLen() != 0 {
		t.Fatal("matched request must leave the PRQ")
	}
}

func TestMatcherMismatchQueuesUnexpected(t *testing.T) {
	var m Matcher
	m.PostRecv(recvReq(1, 7))
	if m.Arrive(&Inbound{Src: 1, Tag: 8}) != nil {
		t.Fatal("tag mismatch must not match")
	}
	if m.Arrive(&Inbound{Src: 0, Tag: 7}) != nil {
		t.Fatal("source mismatch must not match")
	}
	if m.UnexpectedLen() != 2 {
		t.Fatalf("UMQ length %d, want 2", m.UnexpectedLen())
	}
}

func TestMatcherWildcards(t *testing.T) {
	var m Matcher
	r := recvReq(AnySource, AnyTag)
	m.PostRecv(r)
	if got := m.Arrive(&Inbound{Src: 3, Tag: 99}); got != r {
		t.Fatal("wildcard receive must match anything")
	}

	var m2 Matcher
	r2 := recvReq(AnySource, 5)
	m2.PostRecv(r2)
	if m2.Arrive(&Inbound{Src: 3, Tag: 4}) != nil {
		t.Fatal("AnySource must still honour tag")
	}
	if got := m2.Arrive(&Inbound{Src: 3, Tag: 5}); got != r2 {
		t.Fatal("AnySource + matching tag must match")
	}
}

func TestMatcherUnexpectedThenPost(t *testing.T) {
	var m Matcher
	in := &Inbound{Src: 1, Tag: 7, Size: 3, Data: []byte("xyz")}
	if m.Arrive(in) != nil {
		t.Fatal("nothing posted, must queue")
	}
	got := m.PostRecv(recvReq(1, 7))
	if got != in {
		t.Fatalf("PostRecv returned %v, want queued inbound", got)
	}
	if m.UnexpectedLen() != 0 {
		t.Fatal("matched inbound must leave the UMQ")
	}
}

func TestMatcherFIFOOrder(t *testing.T) {
	var m Matcher
	// Two receives, same signature: arrivals must match in post order.
	r1, r2 := recvReq(1, 7), recvReq(1, 7)
	m.PostRecv(r1)
	m.PostRecv(r2)
	if m.Arrive(&Inbound{Src: 1, Tag: 7}) != r1 {
		t.Fatal("first arrival must match first posted receive")
	}
	if m.Arrive(&Inbound{Src: 1, Tag: 7}) != r2 {
		t.Fatal("second arrival must match second posted receive")
	}
	// Two unexpected messages: receives must consume in arrival order.
	a := &Inbound{Src: 2, Tag: 1, Data: []byte("a")}
	b := &Inbound{Src: 2, Tag: 1, Data: []byte("b")}
	m.Arrive(a)
	m.Arrive(b)
	if m.PostRecv(recvReq(2, 1)) != a {
		t.Fatal("first posted receive must take first unexpected message")
	}
	if m.PostRecv(recvReq(2, 1)) != b {
		t.Fatal("second posted receive must take second unexpected message")
	}
}

func TestMatcherWildcardDoesNotStealSpecific(t *testing.T) {
	var m Matcher
	specific := recvReq(1, 7)
	wild := recvReq(AnySource, AnyTag)
	m.PostRecv(specific)
	m.PostRecv(wild)
	// MPI scans PRQ in order: the specific receive was posted first.
	if m.Arrive(&Inbound{Src: 1, Tag: 7}) != specific {
		t.Fatal("PRQ scan order violated")
	}
	if m.Arrive(&Inbound{Src: 9, Tag: 9}) != wild {
		t.Fatal("wildcard should catch the rest")
	}
}

// Property: conservation — every inbound is delivered to exactly one
// receive or sits in the UMQ; every receive matches exactly one inbound or
// sits in the PRQ; and at quiescence at most one of the queues is
// non-empty for any (src, tag) signature.
func TestPropertyMatcherConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		var m Matcher
		matched := 0
		posted, arrived := 0, 0
		for _, op := range ops {
			src := int(op) % 3
			tag := int(op>>2) % 3
			if op%2 == 0 {
				posted++
				if m.PostRecv(recvReq(src, tag)) != nil {
					matched++
				}
			} else {
				arrived++
				if m.Arrive(&Inbound{Src: src, Tag: tag}) != nil {
					matched++
				}
			}
		}
		return m.PostedLen() == posted-matched && m.UnexpectedLen() == arrived-matched
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestCompleteTwicePanics(t *testing.T) {
	r := recvReq(0, 0)
	r.Complete(0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double completion")
		}
	}()
	r.Complete(0, 0, 0)
}

func TestRequestAccessors(t *testing.T) {
	r := &Request{kind: KindSend, peer: 3, tag: 9, n: 5, data: []byte("hello")}
	if r.Kind() != KindSend || r.Peer() != 3 || r.Tag() != 9 || r.Bytes() != 5 {
		t.Fatal("send accessors wrong")
	}
	if r.Done() {
		t.Fatal("fresh request should be incomplete")
	}
	r.Complete(0, 9, 5)
	if !r.Done() {
		t.Fatal("completion state wrong")
	}
	rr := recvReq(1, 2)
	rr.Complete(1, 2, 42)
	if rr.Bytes() != 42 || rr.Status().Source != 1 || rr.Status().Tag != 2 {
		t.Fatal("recv status wrong")
	}
	if KindSend.String() != "send" || KindRecv.String() != "recv" {
		t.Fatal("Kind.String wrong")
	}
}
