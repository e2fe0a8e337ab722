package transport

import (
	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/sim"
)

// msgID identifies one message across the system: its sender and the
// sender's sequence number.
type msgID struct {
	src int
	seq int64
}

// endpoint is the state every transport's endpoint embeds: its node, the
// fabric it sends on, the condition blocking waits park on, the MPI
// matching engine, and the sequence numbering the messages it sends.
type endpoint struct {
	node *cluster.Node
	fab  *cluster.Fabric
	act  sim.Cond
	m    mpi.Matcher
	seq  int64
}

// newEndpoint returns the endpoint state of node on sys's fabric.
func newEndpoint(sys *cluster.System, node *cluster.Node) endpoint {
	return endpoint{node: node, fab: sys.Fabric}
}

func (ep *endpoint) rank() int { return ep.node.ID }

// nextID numbers the endpoint's next message.
func (ep *endpoint) nextID() msgID {
	id := msgID{src: ep.rank(), seq: ep.seq}
	ep.seq++
	return id
}

// Activity implements mpi.Endpoint.  Every state change a blocked wait
// could be waiting for broadcasts on it.
func (ep *endpoint) Activity() *sim.Cond { return &ep.act }

// MatchState implements mpi.Endpoint, backing MPI_Probe.  For a
// kernel- or NIC-matched transport it models the query's view of the
// matching state.
func (ep *endpoint) MatchState() *mpi.Matcher { return &ep.m }

// pooling reports whether records may be recycled: not under a fault
// injector, whose duplicated or delayed deliveries can still reference a
// record after its natural release point.
func (ep *endpoint) pooling() bool { return !ep.fab.Injected() }

// callAt runs fn(arg) at virtual time at, or at once if at has passed.
func (ep *endpoint) callAt(at sim.Time, fn func(any), arg any) {
	ep.node.Env.ScheduleCall(max(at-ep.node.Env.Now(), 0), fn, arg)
}

// sendDone completes a send whose final frame has left the host.
func (ep *endpoint) sendDone(a any) {
	r := a.(*mpi.Request)
	r.Complete(ep.rank(), r.Tag(), r.Len())
	ep.act.Broadcast()
}

// land copies a buffered message into the receive it matched and
// completes the receive.
func land(r *mpi.Request, in *mpi.Inbound) {
	copy(r.Buf(), in.Data)
	r.Complete(in.Src, in.Tag, min(in.Size, r.Len()))
}

// frag is the header every wire payload carries: bytes [off, off+n) of
// message id, size bytes long, sent by src with tag.  data holds those
// bytes and is nil when the message is length-only; last marks the
// message's final fragment.
type frag struct {
	id   msgID
	src  int
	tag  int
	size int
	off  int
	n    int
	data []byte
	last bool
}

// set makes f fragment [off, off+n) of message id, size bytes long,
// whose bytes are data (nil when length-only).  It writes each field in
// place, as copying a whole header would cost a bulk copy per fragment
// on the per-packet path.
func (f *frag) set(id msgID, tag, size, off, n int, data []byte, last bool) {
	f.id, f.src, f.tag, f.size = id, id.src, tag, size
	f.off, f.n, f.last = off, n, last
	if data != nil {
		f.data = data[off : off+n]
	}
}

// freelist recycles records of type T.  Its owner passes its pooling()
// to get and put: without pooling, get allocates and put leaves the
// record to the garbage collector.
type freelist[T any] struct{ free []*T }

func (l *freelist[T]) get(pooling bool) *T {
	if n := len(l.free); n > 0 && pooling {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	return new(T)
}

// put zeroes x and keeps it for a later get.
func (l *freelist[T]) put(x *T, pooling bool) {
	if pooling {
		var zero T
		*x = zero
		l.free = append(l.free, x)
	}
}

// perEnv returns one pool set P for each of sys's environments, keyed by
// environment.  A record goes back to the pool of the endpoint that
// consumes it, often not the one that took it, so the endpoints of a
// serial system share one set, as the fabric's ports share one packet
// pool (with one each, a bulk sender's records would pile up at its
// receiver).  A partition's endpoints touch only their own set.
func perEnv[P any](sys *cluster.System) map[*sim.Env]*P {
	pools := make(map[*sim.Env]*P, len(sys.Envs))
	for _, env := range sys.Envs {
		pools[env] = new(P)
	}
	return pools
}
