package transport

import "comb/internal/cluster"

// bufPool recycles an endpoint's payload buffers.  It stands aside under
// fault injection, where a duplicated delivery could still write into a
// buffer after its release.  Only messages that carry bytes use it: a
// length-only message (mpi.Comm.IsendLen) has no payload to buffer, and
// every transport takes sizes and costs from mpi.Request.Len alone.
type bufPool struct {
	fab  *cluster.Fabric
	free [][]byte
}

// get returns an n-byte buffer, recycled when the newest free one is
// large enough.
func (p *bufPool) get(n int) []byte {
	if m := len(p.free); m > 0 && !p.fab.Injected() {
		buf := p.free[m-1]
		p.free = p.free[:m-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

// copyOf returns a pooled copy of data, or nil for a length-only
// message's nil payload.
func (p *bufPool) copyOf(data []byte) []byte {
	if data == nil {
		return nil
	}
	buf := p.get(len(data))
	copy(buf, data)
	return buf
}

// put releases buf for reuse.  A nil buf, a length-only message's, is
// ignored.
func (p *bufPool) put(buf []byte) {
	if buf != nil && !p.fab.Injected() {
		p.free = append(p.free, buf)
	}
}
