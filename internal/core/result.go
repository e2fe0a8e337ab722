package core

import (
	"fmt"
	"time"
)

// bytesPerMB matches the decimal MB/s unit of the paper's bandwidth axes.
const bytesPerMB = 1e6

// PollingResult is one polling-method measurement (worker rank only).
type PollingResult struct {
	// Echoed configuration.
	MsgSize      int
	PollInterval int64
	WorkTotal    int64
	QueueDepth   int

	// DryTime is the time for WorkTotal iterations with no messaging.
	DryTime time.Duration
	// Elapsed is the time for the same work, polls and message handling
	// included, while messages flowed.
	Elapsed time.Duration
	// BytesReceived / MsgsReceived count traffic landed at the worker
	// during the timed window.
	BytesReceived int64
	MsgsReceived  int64

	// Availability is DryTime / Elapsed — the fraction of the CPU left to
	// the application while communication proceeds.  On multi-processor
	// nodes this single-process metric under-reports overhead (paper §7);
	// see SystemAvailability.
	Availability float64
	// SystemAvailability is the node-wide metric defined by
	// [SystemMeter]; it is 0 when the machine does not expose CPU
	// accounting.
	SystemAvailability float64
	// BandwidthMBs is the sustained one-direction bandwidth in MB/s
	// observed at the worker.
	BandwidthMBs float64
}

// String gives a one-line summary.
func (r PollingResult) String() string {
	return fmt.Sprintf("polling size=%dB poll=%d: %.2f MB/s, availability %.3f",
		r.MsgSize, r.PollInterval, r.BandwidthMBs, r.Availability)
}

// PWWResult is one post-work-wait measurement (worker rank only).
type PWWResult struct {
	// Echoed configuration.
	MsgSize      int
	WorkInterval int64
	Reps         int
	BatchSize    int
	TestInWork   bool

	// WorkOnly is the dry-run duration of one work phase (no messaging).
	WorkOnly time.Duration
	// Phase totals across all reps while messaging.
	PostRecvTotal time.Duration
	PostSendTotal time.Duration
	WorkTotal     time.Duration
	WaitTotal     time.Duration
	// Elapsed is the full messaging-phase duration (= post+work+wait).
	Elapsed time.Duration

	BytesReceived int64

	// Availability is (Reps * WorkOnly) / Elapsed.  See
	// PollingResult.Availability for the SMP caveat.
	Availability float64
	// SystemAvailability is the node-wide metric defined by
	// [SystemMeter]; 0 when unavailable.
	SystemAvailability float64
	// BandwidthMBs is the sustained one-direction bandwidth in MB/s.
	BandwidthMBs float64

	// Per-unit averages, the quantities Figures 10-13 plot.
	AvgPostRecv  time.Duration // per receive posted (Fig 10)
	AvgPostSend  time.Duration // per send posted
	AvgWait      time.Duration // wait time per message (Fig 11)
	AvgWorkMH    time.Duration // work phase duration with message handling (Fig 12/13)
	AvgWorkOnly  time.Duration // work phase duration without messaging
	WorkOverhead float64       // AvgWorkMH / AvgWorkOnly - 1
}

// String gives a one-line summary.
func (r PWWResult) String() string {
	return fmt.Sprintf("pww size=%dB work=%d: %.2f MB/s, availability %.3f, wait/msg %v",
		r.MsgSize, r.WorkInterval, r.BandwidthMBs, r.Availability, r.AvgWait)
}

// Offloaded is COMB's operational application-offload test (paper
// §4.1): messaging completed during the work phase, so the wait per
// message is under 1% of the work-only phase.
func (r PWWResult) Offloaded() bool { return r.AvgWait < r.AvgWorkOnly/100 }

// mbs converts (bytes, duration) to MB/s.
func mbs(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / bytesPerMB
}

// systemAvailability computes the SystemMeter metric: the fraction of the
// node's aggregate CPU capacity left over after subtracting everything the
// window consumed beyond the benchmark's own work demand.
func systemAvailability(busyDelta, ownWork, elapsed time.Duration, cores int) float64 {
	if elapsed <= 0 || cores < 1 {
		return 0
	}
	overhead := busyDelta - ownWork
	if overhead < 0 {
		overhead = 0
	}
	av := 1 - float64(overhead)/float64(elapsed*time.Duration(cores))
	if av < 0 {
		av = 0
	}
	return av
}

// ratio returns a/b guarding against a zero denominator.
func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
