package cluster

import "comb/internal/sim"

// MB is the decimal megabyte used for all bandwidth reporting, matching the
// paper's MB/s axes.
const MB = 1e6

// Platform collects every hardware parameter of a simulated node and its
// network port.  All COMB model calibration lives here; EXPERIMENTS.md
// documents the rationale for each value.
type Platform struct {
	// IterCost is the CPU time of one iteration of the benchmark's empty
	// polling/work loop.  The paper's axes are in "loop iterations"; with
	// a 500 MHz Pentium III and a one-cycle empty loop this is 2 ns.
	IterCost sim.Time

	// CPUs is the number of processors per node (0 means 1).  The paper's
	// testbed was uniprocessor; multi-processor nodes implement its §7
	// future work and demonstrate why the single-process availability
	// metric breaks on SMP.
	CPUs int

	// CopyBandwidth is the host memcpy rate in bytes/sec.  It bounds every
	// kernel-mediated transport (the paper's Portals tops out near 50 MB/s
	// because the host copies each message twice).
	CopyBandwidth float64

	// Link describes the node's network port (Myrinet LANai 7.2 class).
	Link LinkConfig

	// PacketHeader is the wire overhead per packet in bytes.
	PacketHeader int
}

// PlatformPIII500 approximates the paper's testbed: 500 MHz Pentium III,
// 256 MB PC100 memory, Myrinet LANai 7.2 NICs on an 8-port switch.
//
// Calibration targets (paper figures): sustained MPI bandwidth ~88 MB/s for
// an OS-bypass NIC-driven transport and ~50 MB/s for a host-copy transport;
// one-way small-packet latency in the tens of microseconds.
func PlatformPIII500() Platform {
	return Platform{
		IterCost:      2 * sim.Nanosecond,
		CopyBandwidth: 120 * MB,
		Link: LinkConfig{
			// Raw Myrinet wire speed is ~160 MB/s but LANai-7-era DMA
			// through a 32-bit/33 MHz PCI bus tops out near 132 MB/s.
			Bandwidth: 132 * MB,
			Latency:   1 * sim.Microsecond,
			// LANai firmware occupancy per packet; with a 4 KB MTU this
			// yields ~88 MB/s sustained per direction, the GM plateau in
			// Figures 8, 14 and 16.
			PerPacket: Time15_5us,
			MTU:       4096,
		},
		PacketHeader: 16,
	}
}

// Time15_5us is 15.5 microseconds; a named constant because Platform
// documentation refers to it.
const Time15_5us = 15*sim.Microsecond + 500*sim.Nanosecond

// CopyTime returns the host CPU time to memcpy n bytes on this platform.
func (p *Platform) CopyTime(n int) sim.Time {
	return sim.PerByte(int64(n), p.CopyBandwidth)
}

// WorkTime returns the CPU demand of iters empty loop iterations.
func (p *Platform) WorkTime(iters int64) sim.Time {
	return sim.Time(iters) * p.IterCost
}
