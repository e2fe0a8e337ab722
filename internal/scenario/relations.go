package scenario

import (
	"context"
	"fmt"
	"sort"

	"comb/internal/core"
	"comb/internal/method/collov"
	"comb/internal/method/pingpong"
	"comb/internal/runner"
	"comb/internal/transport"
)

// relEps is the relative slack the strict inequality relations grant.
// The simulator is deterministic, so the slack only absorbs float ratio
// noise between two independently computed metrics — it is far below
// any physically meaningful difference.
const relEps = 1e-9

// relTol is the relative slack for the clean-vs-faulted monotonicity
// relations.  Those compare two *different* event schedules, and a light
// fault can legitimately land a hair ahead of clean without the injector
// being broken: a +20us packet delay that pushes an arrival past a work
// interval boundary coalesces it into the next library visit, saving a
// per-message handling cost that outweighs the delay itself.  Measured
// across the shipped packs these alignment effects stay under ~1%; real
// injector damage (retransmission timeouts, duplicated bulk fragments)
// shows up at 10-1000x that.  2% keeps the oracle silent on scheduling
// physics while still catching a fault path that creates capacity.
const relTol = 0.02

// The built-in relation catalog.  Each relation documents why the
// property must hold (and, as important, where it must not be applied):
// a metamorphic oracle is only as good as the preconditions of its
// relations.
func init() {
	RegisterRelation(Relation{
		Name:     "matrix/complete",
		Describe: "every workload on every transport, faulted and clean, simulates with zero invariant violations",
		Check:    checkComplete,
	})
	RegisterRelation(Relation{
		Name:     "matrix/keys-unique",
		Describe: "distinct matrix cells never collide on the frozen cache-key grammar",
		Check:    checkKeysUnique,
	})
	RegisterRelation(Relation{
		Name:     "replay/deterministic",
		Describe: "a cold re-run of a cell reproduces the matrix run's result hash bit-for-bit",
		Check:    checkReplayDeterministic,
	})
	RegisterRelation(Relation{
		Name:     "faults/availability-monotone",
		Describe: "wire faults never raise post-work-wait availability above the clean twin",
		Check:    checkAvailabilityMonotone,
	})
	RegisterRelation(Relation{
		Name:     "faults/bandwidth-monotone",
		Describe: "faults never raise delivery-bound bandwidth (pww, pingpong) above the clean twin",
		Check:    checkBandwidthMonotone,
	})
	RegisterRelation(Relation{
		Name:     "collov/overlap-monotone",
		Describe: "wire faults never raise the collective-overlap fraction above the clean twin",
		Check:    checkOverlapMonotone,
	})
	RegisterRelation(Relation{
		Name:     "pww/wait-monotone-gm",
		Describe: "on host-progressed gm, clean post-work-wait time per message is monotone in message size",
		Check:    checkWaitMonotoneGM,
	})
	RegisterRelation(Relation{
		Name:     "offload/wait-advantage",
		Describe: "offloading portals never waits longer than host-progressed gm on the same clean workload",
		Check:    checkOffloadWaitAdvantage,
	})
	RegisterRelation(Relation{
		Name:     "ideal/bandwidth-dominates",
		Describe: "the clean ideal transport's bandwidth dominates every faulted default-link transport on the same workload",
		Check:    checkIdealDominates,
	})
}

// checkComplete is the only relation that looks at Cell.Err: every
// other relation skips errored cells so one failed simulation is
// reported exactly once, with its replay line.
func checkComplete(_ context.Context, m *Matrix) []Violation {
	var out []Violation
	for _, c := range m.Cells {
		if c.Err != nil {
			out = append(out, Violation{
				Relation: "matrix/complete",
				Pack:     m.Pack.Name,
				Detail:   fmt.Sprintf("%s/%s (faulted=%v) failed: %v", c.Workload, c.System, c.Faulted, c.Err),
				Replay:   c.Replay(),
			})
		}
	}
	return out
}

// checkKeysUnique pins the frozen key grammar structurally: the matrix
// deliberately varies every optional key axis (system, seed, faults),
// so any two cells sharing a key mean the grammar lost an axis.
func checkKeysUnique(_ context.Context, m *Matrix) []Violation {
	seen := make(map[string]*Cell, len(m.Cells))
	var out []Violation
	for _, c := range m.Cells {
		if prev, dup := seen[c.Key]; dup {
			out = append(out, Violation{
				Relation: "matrix/keys-unique",
				Pack:     m.Pack.Name,
				Detail: fmt.Sprintf("cells %s/%s (faulted=%v) and %s/%s (faulted=%v) collide on key %s",
					prev.Workload, prev.System, prev.Faulted, c.Workload, c.System, c.Faulted, c.Key),
				Replay: c.Replay(),
			})
			continue
		}
		seen[c.Key] = c
	}
	return out
}

// checkReplayDeterministic cold-reruns one clean cell per transport —
// fresh engine, no memo, no disk — and demands the envelope hash of the
// cold run equal the matrix run's.  This is the cache-integrity
// relation: a divergence means either the simulator picked up hidden
// state or a cache tier returned a result the spec key does not own.
func checkReplayDeterministic(ctx context.Context, m *Matrix) []Violation {
	sampled := make(map[string]bool)
	var out []Violation
	for _, c := range m.Cells {
		if c.Err != nil || c.Faulted || sampled[c.System] {
			continue
		}
		sampled[c.System] = true
		cold, err := m.Rerun(ctx, c)
		if err != nil {
			if ctx.Err() != nil {
				return out
			}
			out = append(out, Violation{
				Relation: "replay/deterministic",
				Pack:     m.Pack.Name,
				Detail:   fmt.Sprintf("%s/%s cold re-run failed: %v", c.Workload, c.System, err),
				Replay:   c.Replay(),
			})
			continue
		}
		h, err := HashEnvelope(cold)
		if err != nil {
			out = append(out, Violation{
				Relation: "replay/deterministic",
				Pack:     m.Pack.Name,
				Detail:   fmt.Sprintf("%s/%s cold re-run hash: %v", c.Workload, c.System, err),
				Replay:   c.Replay(),
			})
			continue
		}
		if h != c.Hash {
			out = append(out, Violation{
				Relation: "replay/deterministic",
				Pack:     m.Pack.Name,
				Detail:   fmt.Sprintf("%s/%s cold re-run hash %s != matrix hash %s", c.Workload, c.System, h, c.Hash),
				Replay:   c.Replay(),
			})
		}
	}
	return out
}

// checkAvailabilityMonotone: post-work-wait posts a fixed message batch
// and blocks until it completes, so any wire fault can only stretch the
// wait phase — availability ((Reps×WorkOnly)/Elapsed) must not rise.
//
// The relation is deliberately narrow.  It excludes jitter faults
// (they steal cycles from the dry calibration too, perturbing the
// numerator), the polling method (its availability legitimately rises
// when faults thin the incoming stream: fewer messages to handle means
// less overhead), and netperf (whose whole point is misreporting
// availability — paper §5).  The comparison runs at relTol, not relEps:
// clean and faulted runs are different event schedules, and light
// faults produce sub-percent alignment wins (see relTol).
func checkAvailabilityMonotone(_ context.Context, m *Matrix) []Violation {
	var out []Violation
	for _, c := range m.Cells {
		if !c.Faulted || c.Err != nil {
			continue
		}
		if c.Spec.Faults == nil || !c.Spec.Faults.WireOnly() {
			continue
		}
		faulted, ok := pwwOf(c)
		if !ok {
			continue
		}
		twin := m.CleanTwin(c)
		if twin == nil || twin.Err != nil {
			continue
		}
		clean, ok := pwwOf(twin)
		if !ok {
			continue
		}
		if faulted.Availability > clean.Availability*(1+relTol) {
			out = append(out, Violation{
				Relation: "faults/availability-monotone",
				Pack:     m.Pack.Name,
				Detail: fmt.Sprintf("%s/%s: faulted availability %.6f exceeds clean %.6f",
					c.Workload, c.System, faulted.Availability, clean.Availability),
				Replay: c.Replay(),
			})
		}
	}
	return out
}

// checkBandwidthMonotone: pww and pingpong move a fixed byte volume and
// block on its delivery, so faults of every kind — drops forcing
// retransmits, delays, reorder stalls, jitter bursts — can only stretch
// the elapsed time under the fixed numerator.  Polling is excluded for
// the same reason as in the availability relation: its byte volume is
// whatever arrived during the work window, so faults shrink numerator
// and denominator together.  Runs at relTol: same alignment physics as
// the availability relation (the denominators are the same Elapsed).
func checkBandwidthMonotone(_ context.Context, m *Matrix) []Violation {
	var out []Violation
	for _, c := range m.Cells {
		if !c.Faulted || c.Err != nil {
			continue
		}
		fbw, ok := deliveryBandwidth(c)
		if !ok {
			continue
		}
		twin := m.CleanTwin(c)
		if twin == nil || twin.Err != nil {
			continue
		}
		cbw, ok := deliveryBandwidth(twin)
		if !ok {
			continue
		}
		if fbw > cbw*(1+relTol) {
			out = append(out, Violation{
				Relation: "faults/bandwidth-monotone",
				Pack:     m.Pack.Name,
				Detail: fmt.Sprintf("%s/%s: faulted bandwidth %.3f MB/s exceeds clean %.3f MB/s",
					c.Workload, c.System, fbw, cbw),
				Replay: c.Replay(),
			})
		}
	}
	return out
}

// checkOverlapMonotone: the collov measurement reports how much injected
// CPU work hides inside a nonblocking collective.  Wire faults stretch
// the collective's wire phase and add host handling (retransmits,
// duplicate segments), so the work a faulted run can hide — as a
// fraction of its own, longer reference — must not exceed the clean
// twin's.  Jitter faults are excluded like in the availability relation:
// they inflate the reference and the injected-work cost asymmetrically.
// The comparison adds each run's StepFraction on top of relTol: the
// answer is quantized to one work-axis step, and the two runs derive
// their axes from different reference times, so a one-cell shift is
// measurement resolution, not a broken injector.
func checkOverlapMonotone(_ context.Context, m *Matrix) []Violation {
	var out []Violation
	for _, c := range m.Cells {
		if !c.Faulted || c.Err != nil {
			continue
		}
		if c.Spec.Faults == nil || !c.Spec.Faults.WireOnly() {
			continue
		}
		faulted, ok := runner.As[*collov.Result](c.Result)
		if !ok {
			continue
		}
		twin := m.CleanTwin(c)
		if twin == nil || twin.Err != nil {
			continue
		}
		clean, ok := runner.As[*collov.Result](twin.Result)
		if !ok {
			continue
		}
		slack := clean.StepFraction
		if faulted.StepFraction > slack {
			slack = faulted.StepFraction
		}
		if faulted.OverlapFraction > clean.OverlapFraction*(1+relTol)+slack {
			out = append(out, Violation{
				Relation: "collov/overlap-monotone",
				Pack:     m.Pack.Name,
				Detail: fmt.Sprintf("%s/%s: faulted overlap %.4f exceeds clean %.4f (step slack %.4f)",
					c.Workload, c.System, faulted.OverlapFraction, clean.OverlapFraction, slack),
				Replay: c.Replay(),
			})
		}
	}
	return out
}

// checkWaitMonotoneGM: gm progresses messages only while the host sits
// in the MPI library, so the per-message wait absorbs the full transfer
// cost — which grows with message size.  The relation compares clean gm
// pww cells that differ only in MsgSize (all other knobs equal), in
// ascending size order.
func checkWaitMonotoneGM(_ context.Context, m *Matrix) []Violation {
	type axisKey struct {
		workInterval int64
		reps         int
		batch        int
		testInWork   bool
		interleave   int
		tag          int
	}
	groups := make(map[axisKey][]*Cell)
	for _, c := range m.Cells {
		if c.Faulted || c.Err != nil || c.System != "gm" {
			continue
		}
		cfg, ok := pwwConfigOf(c)
		if !ok {
			continue
		}
		k := axisKey{cfg.WorkInterval, cfg.Reps, cfg.BatchSize, cfg.TestInWork, cfg.Interleave, cfg.Tag}
		groups[k] = append(groups[k], c)
	}
	var out []Violation
	for _, cells := range groups {
		if len(cells) < 2 {
			continue
		}
		sort.Slice(cells, func(i, j int) bool {
			ci, _ := pwwConfigOf(cells[i])
			cj, _ := pwwConfigOf(cells[j])
			return ci.MsgSize < cj.MsgSize
		})
		for i := 1; i < len(cells); i++ {
			prev, _ := pwwOf(cells[i-1])
			cur, _ := pwwOf(cells[i])
			if float64(cur.AvgWait) < float64(prev.AvgWait)*(1-relEps) {
				out = append(out, Violation{
					Relation: "pww/wait-monotone-gm",
					Pack:     m.Pack.Name,
					Detail: fmt.Sprintf("%s (size %d) waits %v/msg on gm, smaller %s (size %d) waited %v/msg",
						cells[i].Workload, cur.MsgSize, cur.AvgWait,
						cells[i-1].Workload, prev.MsgSize, prev.AvgWait),
					Replay: cells[i].Replay(),
				})
			}
		}
	}
	return out
}

// checkOffloadWaitAdvantage encodes the paper's headline contrast: the
// portals transport progresses messages off the host, so by the time a
// post-work-wait cycle reaches its wait phase the transfer has advanced
// through the work phase — gm, which only progresses inside the
// library, pays the whole transfer in the wait.  Clean cells only: a
// fault profile can degrade the two transports asymmetrically.
func checkOffloadWaitAdvantage(_ context.Context, m *Matrix) []Violation {
	var out []Violation
	for _, c := range m.Cells {
		if c.Faulted || c.Err != nil || c.System != "portals" {
			continue
		}
		port, ok := pwwOf(c)
		if !ok {
			continue
		}
		gmCell := m.Cell(c.Workload, "gm", false)
		if gmCell == nil || gmCell.Err != nil {
			continue
		}
		gm, ok := pwwOf(gmCell)
		if !ok {
			continue
		}
		if float64(port.AvgWait) > float64(gm.AvgWait)*(1+relEps) {
			out = append(out, Violation{
				Relation: "offload/wait-advantage",
				Pack:     m.Pack.Name,
				Detail: fmt.Sprintf("%s: portals waits %v/msg, gm only %v/msg — offload lost its advantage",
					c.Workload, port.AvgWait, gm.AvgWait),
				Replay: c.Replay(),
			})
		}
	}
	return out
}

// checkIdealDominates: the ideal transport is the zero-host-cost
// full-offload bound, so no faulted transport may beat its clean run's
// bandwidth on the same workload.  This cross-checks the fault injector
// itself — a "fault" that speeds a transport past the ideal bound means
// the injector created capacity instead of degrading it.
//
// The bound only holds among transports on the platform's default
// interconnect: a LinkPreferencer brings its own NIC hardware, and
// emp's jumbo-frame gigabit Ethernet legitimately out-runs the default
// Myrinet wire on bulk transfers despite emp's host costs.  "Ideal"
// is ideal in host cost, not in link provisioning.  And it only holds
// for fixed-delivery-volume methods (pww, pingpong): polling's
// bandwidth is measured over the work window, so a jitter fault that
// stretches the window lets more of the incoming stream land and the
// "faulted" measurement rises toward wire saturation.
func checkIdealDominates(_ context.Context, m *Matrix) []Violation {
	var out []Violation
	for _, c := range m.Cells {
		if !c.Faulted || c.Err != nil || !transport.DefaultLink(c.System) {
			continue
		}
		fbw, ok := deliveryBandwidth(c)
		if !ok {
			continue
		}
		ideal := m.Cell(c.Workload, "ideal", false)
		if ideal == nil || ideal.Err != nil {
			continue
		}
		ibw, ok := deliveryBandwidth(ideal)
		if !ok {
			continue
		}
		if fbw > ibw*(1+relEps) {
			out = append(out, Violation{
				Relation: "ideal/bandwidth-dominates",
				Pack:     m.Pack.Name,
				Detail: fmt.Sprintf("%s: faulted %s reaches %.3f MB/s, above clean ideal's %.3f MB/s",
					c.Workload, c.System, fbw, ibw),
				Replay: c.Replay(),
			})
		}
	}
	return out
}

// pwwOf extracts a cell's post-work-wait result, if that is what it ran.
func pwwOf(c *Cell) (*core.PWWResult, bool) {
	return runner.As[*core.PWWResult](c.Result)
}

// pwwConfigOf extracts a cell's normalized pww parameters.
func pwwConfigOf(c *Cell) (core.PWWConfig, bool) {
	cfg, ok := c.Spec.Params.(core.PWWConfig)
	return cfg, ok
}

// deliveryBandwidth reads the bandwidth of methods that block on a
// fixed delivery volume (pww, pingpong) — the precondition of the
// bandwidth monotonicity relation.
func deliveryBandwidth(c *Cell) (float64, bool) {
	if r, ok := runner.As[*core.PWWResult](c.Result); ok {
		return r.BandwidthMBs, true
	}
	if r, ok := runner.As[*pingpong.Result](c.Result); ok {
		return r.BandwidthMBs, true
	}
	return 0, false
}
