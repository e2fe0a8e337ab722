package mpi

// Inbound is an incoming message envelope presented to the matcher: either
// a fully-buffered eager message (Rndv nil) or a rendezvous announcement
// (Rndv carrying the transport's RTS handle).  Size is the message length;
// Data holds a buffered message's bytes, and is nil when the message is
// length-only, so it cannot tell the two kinds apart.
type Inbound struct {
	Src  int
	Tag  int
	Size int
	Data []byte
	Rndv any
}

// Matcher implements MPI's two-queue matching discipline: a posted-receive
// queue (PRQ) scanned by arriving messages and an unexpected-message queue
// (UMQ) scanned by newly posted receives.  Both scans honour posting /
// arrival order, which—together with the fabric's per-pair FIFO—gives MPI's
// non-overtaking guarantee.
//
// The same structure serves both library-level matching (the GM model) and
// kernel-level matching (the Portals model); only where it runs differs.
type Matcher struct {
	posted     []*Request
	unexpected []*Inbound
}

// PostRecv offers a receive request to the matcher.  If an unexpected
// message already matches, it is removed and returned; otherwise the
// request joins the PRQ and nil is returned.
func (m *Matcher) PostRecv(r *Request) *Inbound {
	for i, in := range m.unexpected {
		if r.matches(in.Src, in.Tag) {
			m.unexpected = append(m.unexpected[:i], m.unexpected[i+1:]...)
			return in
		}
	}
	m.posted = append(m.posted, r)
	return nil
}

// Arrive offers an incoming envelope to the matcher.  If a posted receive
// matches, it is removed and returned; otherwise the envelope joins the
// UMQ and nil is returned.
func (m *Matcher) Arrive(in *Inbound) *Request {
	for i, r := range m.posted {
		if r.matches(in.Src, in.Tag) {
			m.posted = append(m.posted[:i], m.posted[i+1:]...)
			return r
		}
	}
	m.unexpected = append(m.unexpected, in)
	return nil
}

// Peek returns the first unexpected envelope matching (src, tag) —
// honouring wildcards — without removing it, or nil.  It backs MPI_Probe.
func (m *Matcher) Peek(src, tag int) *Inbound {
	probe := Request{kind: KindRecv, peer: src, tag: tag}
	for _, in := range m.unexpected {
		if probe.matches(in.Src, in.Tag) {
			return in
		}
	}
	return nil
}

// PostedLen returns the posted-receive queue length.
func (m *Matcher) PostedLen() int { return len(m.posted) }

// UnexpectedLen returns the unexpected-message queue length.
func (m *Matcher) UnexpectedLen() int { return len(m.unexpected) }
