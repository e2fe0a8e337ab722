package core

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"time"
)

// RunPolling executes the polling method (paper §2.1).  Rank 0 is the
// worker: it interleaves chunks of PollInterval iterations of work with
// completion polls and replies to every arrived message, keeping
// QueueDepth messages in flight each way.  Rank 1 is the support process:
// it echoes messages as fast as the worker consumes them.  Extra ranks
// idle in the barriers.
//
// The worker returns the measurement; every other rank returns nil.
func RunPolling(m Machine, cfg PollingConfig) (*PollingResult, error) {
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m.Size() < 2 {
		return nil, fmt.Errorf("core: polling method needs at least 2 ranks, have %d", m.Size())
	}
	switch m.Rank() {
	case 0:
		return pollingWorker(m, cfg), nil
	case 1:
		pollingSupport(m, cfg)
		return nil, nil
	default:
		m.Barrier()
		m.Barrier()
		m.Barrier()
		return nil, nil
	}
}

// encodeCount / decodeCount carry message counts in the termination
// handshake (FIN and FINACK payloads).
func encodeCount(n int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(n))
	return b
}

func decodeCount(b []byte) int64 {
	return int64(binary.LittleEndian.Uint64(b))
}

func pollingWorker(m Machine, cfg PollingConfig) *PollingResult {
	const peer = 1
	q := cfg.QueueDepth
	rec := spanRecorderOf(m)

	// Dry run: the predetermined amount of work with no communication.
	dryStart := m.Now()
	runDry(m, cfg.WorkTotal, cfg.CalibratedDry)
	dry := m.Now() - dryStart
	if rec != nil {
		rec.RecordSpan("phase", "dry", dryStart, dryStart+dry)
	}

	m.Barrier()

	// All receives are posted before any send (Fig 1 setup).  The data
	// messages are length-only: their cost depends on their size alone,
	// and nothing reads their contents.  Only the termination handshake
	// carries bytes.
	recvs := make([]Request, q)
	for i := range recvs {
		recvs[i] = m.IrecvLen(peer, cfg.Tag, cfg.MsgSize)
	}
	finAckBuf := make([]byte, 8)
	finAck := m.Irecv(peer, cfg.Tag+finAckTagOff, finAckBuf)

	m.Barrier()

	var sends []Request
	var sent, received, bytes, timedMsgs int64

	meter, hasMeter := m.(SystemMeter)
	var busy0 time.Duration
	cores := 1
	if hasMeter {
		busy0, cores = meter.CPUAccount()
	}

	start := m.Now()
	for i := 0; i < q; i++ {
		sends = append(sends, m.IsendLen(peer, cfg.Tag, cfg.MsgSize))
		sent++
	}

	executed := int64(0)
	chunkNo := 0
	var spanT0 time.Duration
	for executed < cfg.WorkTotal {
		chunk := cfg.PollInterval
		if rest := cfg.WorkTotal - executed; chunk > rest {
			chunk = rest
		}
		if rec != nil {
			spanT0 = m.Now()
		}
		m.Work(chunk)
		executed += chunk
		if rec != nil {
			t1 := m.Now()
			rec.RecordSpan("phase", "work", spanT0, t1, "chunk", strconv.Itoa(chunkNo))
			spanT0 = t1
		}

		// One library call per poll interval (Fig 1's completion test);
		// it gives the library its progress opportunity, after which every
		// arrived message in the queue is serviced in two passes: first
		// repost every completed receive (so the peer's next messages
		// always find posted receives instead of the unexpected queue),
		// then send the replies.
		m.Test(recvs[0])
		replies := 0
		for i := range recvs {
			if !recvs[i].Done() {
				continue
			}
			received++
			timedMsgs++
			replies++
			bytes += int64(recvs[i].Bytes())
			recvs[i] = m.IrecvLen(peer, cfg.Tag, cfg.MsgSize)
		}
		serviced := replies
		for ; replies > 0; replies-- {
			sends = append(sends, m.IsendLen(peer, cfg.Tag, cfg.MsgSize))
			sent++
		}
		sends = pruneDone(sends)
		if rec != nil {
			rec.RecordSpan("phase", "poll", spanT0, m.Now(),
				"chunk", strconv.Itoa(chunkNo), "serviced", strconv.Itoa(serviced))
		}
		chunkNo++
	}
	elapsed := m.Now() - start
	sysAvail := 0.0
	if hasMeter {
		busy1, _ := meter.CPUAccount()
		sysAvail = systemAvailability(busy1-busy0, dry, elapsed, cores)
	}

	// Termination handshake: tell the support process how many data
	// messages we sent, learn how many it sent, and drain the difference.
	drainT0 := m.Now()
	finSend := m.Isend(peer, cfg.Tag+finTagOff, encodeCount(sent))
	m.Wait(finAck)
	supportSent := decodeCount(finAckBuf)
	for received < supportSent {
		i := m.Waitany(recvs)
		received++
		recvs[i] = m.IrecvLen(peer, cfg.Tag, cfg.MsgSize)
	}
	m.Wait(finSend)
	m.Waitall(sends)
	if rec != nil {
		rec.RecordSpan("phase", "drain", drainT0, m.Now())
	}

	m.Barrier()

	return &PollingResult{
		MsgSize:       cfg.MsgSize,
		PollInterval:  cfg.PollInterval,
		WorkTotal:     cfg.WorkTotal,
		QueueDepth:    q,
		DryTime:       dry,
		Elapsed:       elapsed,
		BytesReceived: bytes,
		MsgsReceived:  timedMsgs,
		Availability:  ratio(dry, elapsed),

		SystemAvailability: sysAvail,
		BandwidthMBs:       mbs(bytes, elapsed),
	}
}

func pollingSupport(m Machine, cfg PollingConfig) {
	const peer = 0
	q := cfg.QueueDepth

	m.Barrier()

	recvs := make([]Request, q)
	for i := range recvs {
		recvs[i] = m.IrecvLen(peer, cfg.Tag, cfg.MsgSize)
	}
	finBuf := make([]byte, 8)
	fin := m.Irecv(peer, cfg.Tag+finTagOff, finBuf)

	m.Barrier()

	var sends []Request
	var sent, received int64
	for i := 0; i < q; i++ {
		sends = append(sends, m.IsendLen(peer, cfg.Tag, cfg.MsgSize))
		sent++
	}

	// Service loop: echo every arrival until the worker's FIN shows up.
	// Like the worker, repost all drained slots before sending replies so
	// follow-up traffic finds posted receives.
	waitSet := make([]Request, q+1)
	var workerSent int64 = -1
	for workerSent < 0 {
		copy(waitSet, recvs)
		waitSet[q] = fin
		i := m.Waitany(waitSet)
		if i == q {
			workerSent = decodeCount(finBuf)
			break
		}
		replies := 0
		for j := range recvs {
			if recvs[j].Done() {
				received++
				replies++
				recvs[j] = m.IrecvLen(peer, cfg.Tag, cfg.MsgSize)
			}
		}
		for ; replies > 0; replies-- {
			sends = append(sends, m.IsendLen(peer, cfg.Tag, cfg.MsgSize))
			sent++
		}
		sends = pruneDone(sends)
	}

	// Report our send count, then absorb the worker's remaining traffic
	// without echoing it (the measurement is over).
	sends = append(sends, m.Isend(peer, cfg.Tag+finAckTagOff, encodeCount(sent)))
	for received < workerSent {
		i := m.Waitany(recvs)
		received++
		recvs[i] = m.IrecvLen(peer, cfg.Tag, cfg.MsgSize)
	}
	m.Waitall(sends)

	m.Barrier()
}

// pruneDone drops completed requests, keeping allocations bounded.
func pruneDone(rs []Request) []Request {
	keep := rs[:0]
	for _, r := range rs {
		if !r.Done() {
			keep = append(keep, r)
		}
	}
	return keep
}
