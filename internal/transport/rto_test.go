package transport

import (
	"testing"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/sim"
)

// dropInjector delivers every packet once, on time, except every
// every-th one, which it drops: a fault injector whose drops make TCP's
// retransmission timeouts fire.
type dropInjector struct{ every, n int }

func (d *dropInjector) Deliver(_ *cluster.Packet, at sim.Time) []sim.Time {
	d.n++
	if d.n%d.every == 0 {
		return nil
	}
	return []sim.Time{at}
}

// TestTCPRTOSlotsReused streams 256 length-only messages from rank 0 to
// rank 1 over TCP at the default 20 ms RTO, on a clean fabric and under
// a fault injector that drops packets.  The sender arms each message's
// retransmission timeout in a slot from its freelist, which the
// message-complete ack or the timeout's expiry returns there, so the
// distinct slots it ever arms must not outnumber the messages it had
// awaiting their ack at one time.  Under the injector some timeouts must
// expire, so slots come back both ways.  It drops every 37th packet: a
// period prime to the stream's five-packet cycle (two data segments, a
// delayed ACK and two message-complete acks), so that the drops hit data
// and acks alike.
func TestTCPRTOSlotsReused(t *testing.T) {
	const msgs, size = 256, 4096
	for _, tc := range []struct {
		name string
		inj  cluster.Injector
	}{{"clean", nil}, {"drops", &dropInjector{every: 37}}} {
		t.Run(tc.name, func(t *testing.T) {
			sys := cluster.NewSystem(2, cluster.PlatformPIII500())
			defer sys.Close()
			if tc.inj != nil {
				sys.Fabric.SetInjector(tc.inj)
			}
			tr := NewTCP()
			if tr.Config.RTO != 20*sim.Millisecond {
				t.Fatalf("default RTO is %v, want 20ms", tr.Config.RTO)
			}
			eps := tr.Build(sys)
			ep := eps[0].(*tcpEndpoint)
			peak, fired := 0, 0
			slots := map[sim.Slot]bool{}
			ep.tx.sent = func(m *txMsg) {
				ep.armRetransmit(m)
				slots[m.rto] = true
				peak = max(peak, len(ep.unacked))
			}
			retransmit := ep.retransmitFn
			ep.retransmitFn = func(a any) {
				fired++
				retransmit(a)
			}
			received := 0
			for i, e := range eps {
				c := mpi.NewComm(sys.Env, i, 2, e)
				sys.Env.Spawn("rank", func(p *sim.Proc) {
					for k := 0; k < msgs; k++ {
						if c.Rank() == 0 {
							c.Wait(p, c.IsendLen(p, 1, 1, size))
						} else {
							c.Wait(p, c.IrecvLen(p, 0, 1, size))
							received++
						}
					}
				})
			}
			sys.Env.Run()
			if received != msgs {
				t.Fatalf("received %d of %d messages", received, msgs)
			}
			if len(ep.unacked) != 0 {
				t.Fatalf("%d messages still await their ack after the run", len(ep.unacked))
			}
			if len(slots) > peak || len(ep.rtoFree) != len(slots) {
				t.Errorf("armed %d distinct RTO slots, %d back on the freelist, with at most %d messages awaiting their ack at once",
					len(slots), len(ep.rtoFree), peak)
			}
			if peak >= msgs {
				t.Errorf("%d of %d messages awaited their ack at once: the stream never reused a slot", peak, msgs)
			}
			if (tc.inj != nil) != (fired > 0) {
				t.Errorf("%d timeouts expired; want some exactly under the injector", fired)
			}
			t.Logf("%d RTO slots for %d messages (at most %d awaiting an ack at once), %d timeouts expired", len(slots), msgs, peak, fired)
		})
	}
}
