package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"comb/internal/cluster"
	"comb/internal/mpi"
	"comb/internal/obs"
	"comb/internal/sim"
)

// faultyInjector duplicates every third packet and holds every fifth back
// by 30 µs, so its followers overtake it, each only where the transport
// declares it survives that fault; anything else is delivered on time.  It
// draws nothing at random, so two runs that send the same packets see the
// same faults.
type faultyInjector struct {
	tol        Tolerance
	n          int
	held, dups int // faults injected
}

func (in *faultyInjector) Deliver(_ *cluster.Packet, at sim.Time) []sim.Time {
	in.n++
	if in.tol.Reorder && in.n%5 == 0 {
		at += 30 * sim.Microsecond
		in.held++
	}
	if in.tol.Duplication && in.n%3 == 0 {
		in.dups++
		return []sim.Time{at, at + 10*sim.Microsecond}
	}
	return []sim.Time{at}
}

// TestLengthOnlyMatchesBytes runs the same exchange with byte buffers and
// length-only, on every transport, with receives posted on time and late
// (the unexpected path), on a clean fabric and under faultyInjector.  The
// two runs must post and complete every request at the same instants, with
// the same byte counts: a message's bytes change nothing simulated.
func TestLengthOnlyMatchesBytes(t *testing.T) {
	for _, name := range Names() {
		for _, size := range []int{1_000, 20_000} {
			for _, late := range []bool{false, true} {
				for _, faulty := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%dB/late=%v/faulty=%v", name, size, late, faulty), func(t *testing.T) {
						run := func(lenOnly bool) []obs.Span {
							tr, _ := ByName(name)
							o := exchangeOpts{size: size, rounds: 4, late: late, lenOnly: lenOnly,
								spans: obs.NewCollector(0, nil)}
							inj := &faultyInjector{tol: ToleranceOf(name)}
							if faulty {
								o.inj = inj
							}
							exchange(t, tr, o)
							if tol := inj.tol; faulty && (tol.Reorder && inj.held == 0 || tol.Duplication && inj.dups == 0) {
								t.Fatalf("injector held %d and duplicated %d packets", inj.held, inj.dups)
							}
							return o.spans.Capture().Spans
						}
						withBytes, lenOnly := run(false), run(true)
						if len(withBytes) != 16 {
							t.Fatalf("%d request spans, want 16", len(withBytes))
						}
						if !reflect.DeepEqual(lenOnly, withBytes) {
							t.Errorf("length-only run differs from the run with bytes:\n got %v\nwant %v", lenOnly, withBytes)
						}
					})
				}
			}
		}
	}
}

// TestMixedEnds sends one message from an end with or without bytes to an
// end with or without bytes, on every transport, posted on time and late
// (after a probe has found the message pending),
// eager and (on GM) rendezvous, into a receive larger than the message and
// into one smaller (truncation).  The count is min(message, receive) for
// every mix.  A byte buffer keeps the message's prefix when the message has
// bytes, and is left untouched when it has none.
func TestMixedEnds(t *testing.T) {
	const fill = 0xEE
	for _, name := range Names() {
		for _, size := range []int{1_000, 20_000} {
			for _, capacity := range []int{size + 500, size / 2} {
				for _, late := range []bool{false, true} {
					for _, ends := range []struct{ sendBytes, recvBytes bool }{
						{false, true}, {true, false}, {true, true}, {false, false},
					} {
						t.Run(fmt.Sprintf("%s/%dB-into-%dB/late=%v/send-bytes=%v/recv-bytes=%v",
							name, size, capacity, late, ends.sendBytes, ends.recvBytes), func(t *testing.T) {
							tr, _ := ByName(name)
							sys := cluster.NewSystem(2, cluster.PlatformPIII500())
							defer sys.Close()
							eps := tr.Build(sys)
							c0, c1 := mpi.NewComm(sys.Env, 0, 2, eps[0]), mpi.NewComm(sys.Env, 1, 2, eps[1])
							payload := bytes.Repeat([]byte{0x5A}, size)
							buf := bytes.Repeat([]byte{fill}, capacity)
							var st mpi.Status
							done := false
							sys.Env.Spawn("sender", func(p *sim.Proc) {
								if ends.sendBytes {
									c0.Send(p, 1, 7, payload)
								} else {
									c0.Wait(p, c0.IsendLen(p, 1, 7, size))
								}
							})
							sys.Env.Spawn("receiver", func(p *sim.Proc) {
								if late {
									p.Sleep(20 * sim.Millisecond)
									if _, ok := c1.Iprobe(p, 0, 7); !ok {
										t.Error("the message is not pending before the receive")
									}
								}
								var r *mpi.Request
								if ends.recvBytes {
									r = c1.Irecv(p, 0, 7, buf)
								} else {
									r = c1.IrecvLen(p, 0, 7, capacity)
								}
								c1.Wait(p, r)
								st, done = r.Status(), true
							})
							sys.Env.Run()
							if !done {
								t.Fatal("receive never completed")
							}
							n := min(size, capacity)
							if want := (mpi.Status{Source: 0, Tag: 7, Count: n}); st != want {
								t.Errorf("status = %+v, want %+v", st, want)
							}
							landed := 0
							if ends.sendBytes && ends.recvBytes {
								landed = n
							}
							if !bytes.Equal(buf[:landed], payload[:landed]) {
								t.Error("the message's bytes did not land")
							}
							if !bytes.Equal(buf[landed:], bytes.Repeat([]byte{fill}, capacity-landed)) {
								t.Errorf("bytes past the first %d of the receive buffer were written", landed)
							}
						})
					}
				}
			}
		}
	}
}

// TestLengthOnlyCollectivesMatchBytes runs a barrier, a broadcast from
// rank 0 and from the last rank, and an all-reduce on every transport at
// 2, 5 and 8 ranks, once with bytes (Ibcast, Iallreduce) and once
// length-only (IbcastLen, IallreduceLen), eager and (on GM) rendezvous.
// The two runs must post and complete every request at the same
// instants, with the same byte counts, and every rank's CollStats must
// agree: a collective's bytes change nothing simulated.
func TestLengthOnlyCollectivesMatchBytes(t *testing.T) {
	xor := func(acc, contribution []byte) {
		for i := range acc {
			acc[i] ^= contribution[i]
		}
	}
	type outcome struct {
		spans []obs.Span
		stats [][2]int64 // per rank: collectives started, done
	}
	for _, name := range Names() {
		for _, ranks := range []int{2, 5, 8} {
			for _, size := range []int{1_000, 20_000} {
				t.Run(fmt.Sprintf("%s/%dranks/%dB", name, ranks, size), func(t *testing.T) {
					run := func(lenOnly bool) outcome {
						tr, _ := ByName(name)
						sys := cluster.NewSystem(ranks, cluster.PlatformPIII500())
						defer sys.Close()
						meter := &mpi.Meter{Spans: obs.NewCollector(0, nil)}
						comms := make([]*mpi.Comm, ranks)
						finished := 0
						for i, ep := range tr.Build(sys) {
							c := mpi.NewComm(sys.Env, i, ranks, ep)
							c.SetMeter(meter)
							comms[i] = c
							sys.Env.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
								data := bytes.Repeat([]byte{byte(i + 1)}, size)
								c.Barrier(p)
								for _, root := range []int{0, ranks - 1} {
									if lenOnly {
										c.CollWait(p, c.IbcastLen(p, root, size))
									} else {
										c.CollWait(p, c.Ibcast(p, root, data))
									}
								}
								if lenOnly {
									c.CollWait(p, c.IallreduceLen(p, size))
								} else {
									c.CollWait(p, c.Iallreduce(p, data, xor))
								}
								finished++
							})
						}
						sys.Env.Run()
						if finished != ranks {
							t.Fatalf("%d of %d ranks finished", finished, ranks)
						}
						out := outcome{spans: meter.Spans.Capture().Spans}
						for _, c := range comms {
							started, done := c.CollStats()
							out.stats = append(out.stats, [2]int64{started, done})
						}
						return out
					}
					withBytes, lenOnly := run(false), run(true)
					// A barrier, two broadcasts and an all-reduce move
					// 6*(ranks-1) messages: a send and a receive span each.
					if want := 12 * (ranks - 1); len(withBytes.spans) != want {
						t.Fatalf("%d request spans, want %d", len(withBytes.spans), want)
					}
					if !reflect.DeepEqual(lenOnly.spans, withBytes.spans) {
						t.Errorf("length-only spans differ from the run with bytes:\n got %v\nwant %v", lenOnly.spans, withBytes.spans)
					}
					if !reflect.DeepEqual(lenOnly.stats, withBytes.stats) {
						t.Errorf("length-only CollStats %v, with bytes %v", lenOnly.stats, withBytes.stats)
					}
				})
			}
		}
	}
}
