package sim

// Cond is a generation-counted condition in virtual time: the one way a
// process parks on anything other than the clock (Sleep) or its own
// CPU grant.  A waiter reads Gen, checks the state it waits for, and if
// that is not there yet calls Wait with the generation it read.
// Broadcast starts the next generation and readies every parked waiter
// at the current instant, in park order.  A Wait whose generation is
// already stale, because a Broadcast came between the read and the
// Wait, returns at once, so a change that lands while the waiter is
// checking is never missed.
//
// The zero value is ready to use.  Once its waiter list has grown to
// the most waiters it holds at once, a wait and the broadcast that ends
// it allocate nothing.
type Cond struct {
	gen     uint64
	waiters []*Proc // parked waiters, in park order
}

// Gen returns the current generation.
func (c *Cond) Gen() uint64 { return c.gen }

// Wait parks p until a Broadcast starts a generation after gen.  If one
// already has (gen is not the current generation), Wait returns at
// once without parking or scheduling anything.
func (c *Cond) Wait(p *Proc, gen uint64) {
	if gen != c.gen {
		return
	}
	c.waiters = append(c.waiters, p)
	p.park()
}

// Broadcast starts a new generation and schedules every parked waiter
// to resume at the current instant, in the order they parked, after the
// events already queued for it.
func (c *Cond) Broadcast() {
	c.gen++
	for i, p := range c.waiters {
		p.env.ready(0, p)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}
