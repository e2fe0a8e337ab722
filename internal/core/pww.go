package core

import (
	"fmt"
	"strconv"
	"time"
)

// RunPWW executes the post-work-wait method (paper §2.2).  Each cycle the
// worker (rank 0) posts a batch of non-blocking receives and sends, works
// for WorkInterval iterations with no MPI calls, then waits for the batch
// posted Interleave cycles ago (the published method keeps exactly one
// batch in flight).  The support process (rank 1) posts and waits with no
// work phase.  Extra ranks idle in the barriers.
//
// The worker returns the measurement; every other rank returns nil.
func RunPWW(m Machine, cfg PWWConfig) (*PWWResult, error) {
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m.Size() < 2 {
		return nil, fmt.Errorf("core: PWW method needs at least 2 ranks, have %d", m.Size())
	}
	switch m.Rank() {
	case 0:
		return pwwWorker(m, cfg), nil
	case 1:
		pwwSupport(m, cfg)
		return nil, nil
	default:
		m.Barrier()
		m.Barrier()
		return nil, nil
	}
}

// pwwBatch is one in-flight batch's requests.  Its messages are
// length-only: their cost depends on their size alone, and nothing reads
// their contents.
type pwwBatch struct {
	recvs []Request
	sends []Request
	all   []Request
}

func newPWWBatch(b int) *pwwBatch {
	return &pwwBatch{
		recvs: make([]Request, b),
		sends: make([]Request, b),
		all:   make([]Request, 0, 2*b),
	}
}

func pwwWorker(m Machine, cfg PWWConfig) *PWWResult {
	const peer = 1
	b := cfg.BatchSize
	rec := spanRecorderOf(m)

	// Dry run: one work phase with no communication anywhere in flight.
	dryStart := m.Now()
	runDry(m, cfg.WorkInterval, cfg.CalibratedDry)
	workOnly := m.Now() - dryStart
	if rec != nil {
		rec.RecordSpan("phase", "dry", dryStart, dryStart+workOnly)
	}

	m.Barrier()

	window := make([]*pwwBatch, cfg.Interleave)
	for i := range window {
		window[i] = newPWWBatch(b)
	}

	var postRecv, postSend, workT, waitT time.Duration
	var bytes int64

	meter, hasMeter := m.(SystemMeter)
	var busy0 time.Duration
	cores := 1
	if hasMeter {
		busy0, cores = meter.CPUAccount()
	}

	post := func(pb *pwwBatch) {
		// Post phase: receives first, then sends, each call timed.
		for i := 0; i < b; i++ {
			t0 := m.Now()
			pb.recvs[i] = m.IrecvLen(peer, cfg.Tag, cfg.MsgSize)
			postRecv += m.Now() - t0
		}
		for i := 0; i < b; i++ {
			t0 := m.Now()
			pb.sends[i] = m.IsendLen(peer, cfg.Tag, cfg.MsgSize)
			postSend += m.Now() - t0
		}
	}
	wait := func(pb *pwwBatch, rep int) {
		t0 := m.Now()
		pb.all = pb.all[:0]
		pb.all = append(pb.all, pb.recvs...)
		pb.all = append(pb.all, pb.sends...)
		m.Waitall(pb.all)
		t1 := m.Now()
		waitT += t1 - t0
		if rec != nil {
			rec.RecordSpan("phase", "wait", t0, t1, "rep", strconv.Itoa(rep))
		}
		for i := 0; i < b; i++ {
			bytes += int64(pb.recvs[i].Bytes())
		}
	}

	start := m.Now()
	for rep := 0; rep < cfg.Reps; rep++ {
		p0 := m.Now()
		post(window[rep%cfg.Interleave])
		if rec != nil {
			rec.RecordSpan("phase", "post", p0, m.Now(), "rep", strconv.Itoa(rep))
		}

		// Work phase: no MPI calls (except the §4.3 variant's single
		// MPI_Test planted early in the phase).
		t0 := m.Now()
		if cfg.TestInWork {
			head := cfg.WorkInterval / 10
			m.Work(head)
			m.Test(window[rep%cfg.Interleave].recvs[0])
			m.Work(cfg.WorkInterval - head)
		} else {
			m.Work(cfg.WorkInterval)
		}
		t1 := m.Now()
		workT += t1 - t0
		if rec != nil {
			rec.RecordSpan("phase", "work", t0, t1, "rep", strconv.Itoa(rep))
		}

		if lag := rep - (cfg.Interleave - 1); lag >= 0 {
			wait(window[lag%cfg.Interleave], lag)
		}
	}
	// Pipeline epilogue: drain the still-outstanding batches.
	for lag := cfg.Reps - (cfg.Interleave - 1); lag < cfg.Reps; lag++ {
		if lag >= 0 {
			wait(window[lag%cfg.Interleave], lag)
		}
	}
	elapsed := m.Now() - start
	sysAvail := 0.0
	if hasMeter {
		busy1, _ := meter.CPUAccount()
		sysAvail = systemAvailability(busy1-busy0, time.Duration(cfg.Reps)*workOnly, elapsed, cores)
	}

	m.Barrier()

	msgs := int64(cfg.Reps) * int64(b)
	res := &PWWResult{
		MsgSize:       cfg.MsgSize,
		WorkInterval:  cfg.WorkInterval,
		Reps:          cfg.Reps,
		BatchSize:     b,
		TestInWork:    cfg.TestInWork,
		WorkOnly:      workOnly,
		PostRecvTotal: postRecv,
		PostSendTotal: postSend,
		WorkTotal:     workT,
		WaitTotal:     waitT,
		Elapsed:       elapsed,
		BytesReceived: bytes,
		Availability:  ratio(time.Duration(cfg.Reps)*workOnly, elapsed),

		SystemAvailability: sysAvail,
		BandwidthMBs:       mbs(bytes, elapsed),
		AvgPostRecv:        postRecv / time.Duration(msgs),
		AvgPostSend:        postSend / time.Duration(msgs),
		AvgWait:            waitT / time.Duration(msgs),
		AvgWorkMH:          workT / time.Duration(cfg.Reps),
		AvgWorkOnly:        workOnly,
	}
	res.WorkOverhead = ratio(res.AvgWorkMH, res.AvgWorkOnly) - 1
	return res
}

func pwwSupport(m Machine, cfg PWWConfig) {
	const peer = 0
	b := cfg.BatchSize

	m.Barrier()

	window := make([]*pwwBatch, cfg.Interleave)
	for i := range window {
		window[i] = newPWWBatch(b)
	}

	post := func(pb *pwwBatch) {
		for i := 0; i < b; i++ {
			pb.recvs[i] = m.IrecvLen(peer, cfg.Tag, cfg.MsgSize)
		}
		for i := 0; i < b; i++ {
			pb.sends[i] = m.IsendLen(peer, cfg.Tag, cfg.MsgSize)
		}
	}
	wait := func(pb *pwwBatch) {
		pb.all = pb.all[:0]
		pb.all = append(pb.all, pb.recvs...)
		pb.all = append(pb.all, pb.sends...)
		m.Waitall(pb.all)
	}

	for rep := 0; rep < cfg.Reps; rep++ {
		post(window[rep%cfg.Interleave])
		if lag := rep - (cfg.Interleave - 1); lag >= 0 {
			wait(window[lag%cfg.Interleave])
		}
	}
	for lag := cfg.Reps - (cfg.Interleave - 1); lag < cfg.Reps; lag++ {
		if lag >= 0 {
			wait(window[lag%cfg.Interleave])
		}
	}

	m.Barrier()
}
