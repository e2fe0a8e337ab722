package obs

import "fmt"

// Ring keeps the most recent values in a fixed-capacity buffer, evicting
// the oldest when full.  It is the one bounded recorder behind both the
// span Collector and a run's packet instants.  Its buffer grows as
// values arrive, up to the capacity, so a large ring that keeps a few
// values costs only what they take.  A Ring is not safe for concurrent
// use; Collector guards its ring with a mutex.
type Ring[T any] struct {
	buf      []T
	capacity int
	next     int // slot the next Add overwrites once the ring is full
	dropped  int64
}

// NewRing returns a ring keeping the last capacity values.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("obs: ring capacity %d", capacity))
	}
	return &Ring[T]{capacity: capacity}
}

// Add appends v, evicting the oldest value when the ring is full.
func (r *Ring[T]) Add(v T) {
	if n := len(r.buf); n < r.capacity {
		if n == cap(r.buf) {
			grown := make([]T, n, min(r.capacity, max(16, 2*n)))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.dropped++
}

// Items returns a copy of the retained values, oldest first.
func (r *Ring[T]) Items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len reports how many values are retained.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Dropped reports how many values were evicted.
func (r *Ring[T]) Dropped() int64 { return r.dropped }
