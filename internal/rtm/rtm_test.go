package rtm

import (
	"bytes"
	"testing"

	"comb/internal/core"
)

func forEachMode(t *testing.T, fn func(t *testing.T, mode Mode)) {
	t.Helper()
	for _, mode := range []Mode{Offload, Library} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) { fn(t, mode) })
	}
}

func TestSendRecvIntegrity(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Mode) {
		want := make([]byte, 100_000)
		for i := range want {
			want[i] = byte(i * 7)
		}
		got := make([]byte, len(want))
		w := NewWorld(2, mode)
		w.Run(func(m core.Machine) {
			if m.Rank() == 0 {
				m.Wait(m.Isend(1, 5, want))
			} else {
				r := m.Irecv(0, 5, got)
				m.Wait(r)
				if r.Bytes() != len(want) {
					t.Errorf("Bytes = %d", r.Bytes())
				}
			}
		})
		if !bytes.Equal(got, want) {
			t.Fatal("payload corrupted")
		}
	})
}

func TestUnexpectedThenPosted(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Mode) {
		got := make([]byte, 4)
		w := NewWorld(2, mode)
		w.Run(func(m core.Machine) {
			if m.Rank() == 0 {
				m.Wait(m.Isend(1, 1, []byte("abcd")))
				m.Barrier()
			} else {
				m.Barrier() // message certainly staged by now
				m.Wait(m.Irecv(0, 1, got))
			}
		})
		if string(got) != "abcd" {
			t.Fatalf("got %q", got)
		}
	})
}

func TestOrderingSameEnvelope(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Mode) {
		const k = 16
		var order []byte
		w := NewWorld(2, mode)
		w.Run(func(m core.Machine) {
			if m.Rank() == 0 {
				for i := 0; i < k; i++ {
					m.Wait(m.Isend(1, 2, []byte{byte(i)}))
				}
			} else {
				for i := 0; i < k; i++ {
					b := make([]byte, 1)
					m.Wait(m.Irecv(0, 2, b))
					order = append(order, b[0])
				}
			}
		})
		for i, v := range order {
			if v != byte(i) {
				t.Fatalf("overtaking: %v", order)
			}
		}
	})
}

// TestDrainKeepsUnexpectedFirst stages two messages with one envelope by
// hand, the first already drained to the unexpected queue, and posts one
// receive: it must get the first.  No goroutine runs, so the outcome does
// not depend on scheduling.
func TestDrainKeepsUnexpectedFirst(t *testing.T) {
	w := NewWorld(2, Library)
	sender, recv := w.ranks[0], w.ranks[1]
	sender.Isend(1, 3, []byte("first"))
	recv.mu.Lock()
	recv.drainLocked()
	recv.mu.Unlock()
	sender.Isend(1, 3, []byte("secnd"))
	buf := make([]byte, 5)
	if r := recv.Irecv(0, 3, buf); !r.Done() {
		t.Fatal("receive not matched")
	}
	if string(buf) != "first" {
		t.Fatalf("receive got %q, want %q: a later message overtook an earlier one", buf, "first")
	}
	if len(recv.unexpected) != 1 || string(recv.unexpected[0].data) != "secnd" {
		t.Fatalf("unexpected queue holds %d messages, want only the second", len(recv.unexpected))
	}
}

func TestWaitany(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Mode) {
		w := NewWorld(2, mode)
		w.Run(func(m core.Machine) {
			if m.Rank() == 0 {
				m.Wait(m.Isend(1, 9, []byte("x")))
			} else {
				a := m.Irecv(0, 8, make([]byte, 1)) // never arrives
				b := m.Irecv(0, 9, make([]byte, 1))
				if i := m.Waitany([]core.Request{a, b}); i != 1 {
					t.Errorf("Waitany = %d, want 1", i)
				}
			}
		})
	})
}

func TestBarrierGenerations(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Mode) {
		w := NewWorld(4, mode)
		counts := make([]int, 4)
		w.Run(func(m core.Machine) {
			for i := 0; i < 10; i++ {
				m.Barrier()
				counts[m.Rank()]++
			}
		})
		for r, c := range counts {
			if c != 10 {
				t.Fatalf("rank %d made %d barriers", r, c)
			}
		}
	})
}

func TestWorkAdvancesClock(t *testing.T) {
	w := NewWorld(1, Offload)
	var d1, d2 int64
	w.Run(func(m core.Machine) {
		t0 := m.Now()
		m.Work(1_000_000)
		d1 = int64(m.Now() - t0)
		t0 = m.Now()
		m.Work(10_000_000)
		d2 = int64(m.Now() - t0)
	})
	if d1 <= 0 || d2 <= 0 {
		t.Fatal("work loop took no time")
	}
	// 10x the iterations should take appreciably longer (loose: > 3x).
	if d2 < 3*d1 {
		t.Skipf("noisy host: 1e6 iters %dns vs 1e7 iters %dns", d1, d2)
	}
}

// The portability payoff: the unmodified COMB core runs on the real-time
// machine.  Structural assertions only — wall-clock numbers are noisy.
func TestCOMBPollingRunsOnRealMachine(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Mode) {
		w := NewWorld(2, mode)
		var res *core.PollingResult
		w.Run(func(m core.Machine) {
			r, err := core.RunPolling(m, core.PollingConfig{
				Config:       core.Config{MsgSize: 10_000},
				PollInterval: 10_000,
				WorkTotal:    2_000_000,
				QueueDepth:   2,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if r != nil {
				res = r
			}
		})
		if t.Failed() {
			t.FailNow()
		}
		if res == nil {
			t.Fatal("no worker result")
		}
		// Wall-clock noise (first-run warmup, race-detector overhead, CPU
		// frequency shifts) can push the dry/messaging ratio past 1 on a
		// real machine, so only positivity is structural.
		if res.Availability <= 0 {
			t.Errorf("availability %.3f implausible", res.Availability)
		}
		if res.BytesReceived != res.MsgsReceived*10_000 {
			t.Errorf("conservation violated: %+v", res)
		}
	})
}

func TestCOMBPWWRunsOnRealMachine(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Mode) {
		w := NewWorld(2, mode)
		var res *core.PWWResult
		w.Run(func(m core.Machine) {
			r, err := core.RunPWW(m, core.PWWConfig{
				Config:       core.Config{MsgSize: 10_000},
				WorkInterval: 200_000,
				Reps:         5,
				BatchSize:    2,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if r != nil {
				res = r
			}
		})
		if t.Failed() {
			t.FailNow()
		}
		if res == nil {
			t.Fatal("no worker result")
		}
		if res.BytesReceived != int64(5*2*10_000) {
			t.Errorf("bytes = %d", res.BytesReceived)
		}
		if res.WaitTotal < 0 || res.WorkTotal <= 0 {
			t.Errorf("phase accounting broken: %+v", res)
		}
	})
}

func TestModeString(t *testing.T) {
	if Offload.String() != "offload" || Library.String() != "library" {
		t.Fatal("mode names wrong")
	}
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size world must panic")
		}
	}()
	NewWorld(0, Offload)
}

func TestCalibrate(t *testing.T) {
	per := Calibrate()
	if per <= 0 {
		t.Fatal("non-positive per-iteration cost")
	}
	// Any plausible host runs the empty loop between the floor and 1 us
	// per iteration.
	if per > 1000 {
		t.Fatalf("per-iteration cost %v implausibly slow", per)
	}
}

// TestLengthOnly sends length-only messages: into a length-only receive,
// which completes with the message's length, and into a smaller byte
// buffer, which completes with its capacity and is left untouched.
func TestLengthOnly(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Mode) {
		buf := []byte("untouched")
		var whole, truncated int
		w := NewWorld(2, mode)
		w.Run(func(m core.Machine) {
			if m.Rank() == 0 {
				m.Wait(m.IsendLen(1, 5, 100_000))
				m.Wait(m.IsendLen(1, 6, 100_000))
			} else {
				r := m.IrecvLen(0, 5, 200_000)
				m.Wait(r)
				whole = r.Bytes()
				r = m.Irecv(0, 6, buf)
				m.Wait(r)
				truncated = r.Bytes()
			}
		})
		if whole != 100_000 || truncated != len(buf) {
			t.Errorf("Bytes = %d and %d, want 100000 and %d", whole, truncated, len(buf))
		}
		if string(buf) != "untouched" {
			t.Errorf("byte buffer holds %q after a length-only message", buf)
		}
	})
}
