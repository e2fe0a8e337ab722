package transport_test

import (
	"testing"

	"comb/internal/cluster"
	"comb/internal/platform"
	"comb/internal/sim"
)

func TestTCPPreferredLinkApplied(t *testing.T) {
	in, err := platform.New(platform.Config{Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	link := in.Sys.Fabric.Config()
	if link.Bandwidth != 12.5*cluster.MB || link.MTU != 1460 {
		t.Fatalf("tcp wire not applied: %+v", link)
	}
	if in.Sys.P.PacketHeader != 58 {
		t.Fatalf("tcp header = %d, want 58", in.Sys.P.PacketHeader)
	}
}

func TestEMPPreferredLinkApplied(t *testing.T) {
	in, err := platform.New(platform.Config{Transport: "emp"})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	link := in.Sys.Fabric.Config()
	if link.Bandwidth != 125*cluster.MB || link.MTU != 9000 {
		t.Fatalf("emp wire not applied: %+v", link)
	}
}

func TestExplicitPlatformOverridesPreference(t *testing.T) {
	p := cluster.PlatformPIII500()
	in, err := platform.New(platform.Config{Transport: "tcp", Platform: &p})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if in.Sys.Fabric.Config().MTU != 4096 {
		t.Fatal("caller-pinned platform must win over transport preference")
	}
}

func TestTCPStreamBandwidthFastEthernet(t *testing.T) {
	bw := streamBandwidth(t, "tcp", 300_000, 10)
	// 100 Mb/s wire minus header overhead: ~11-12 MB/s.
	if bw < 8 || bw > 12.5 {
		t.Fatalf("tcp one-way stream = %.2f MB/s, want ~11 (Fast Ethernet)", bw)
	}
}

func TestEMPStreamBandwidthGigE(t *testing.T) {
	bw := streamBandwidth(t, "emp", 300_000, 30)
	// 1 Gb/s with jumbo frames and 9us/frame firmware: ~110 MB/s.
	if bw < 95 || bw > 126 {
		t.Fatalf("emp one-way stream = %.1f MB/s, want ~110 (GigE zero-copy)", bw)
	}
}

func TestTCPHybridProgressSignature(t *testing.T) {
	// TCP sits between GM and Portals: the kernel buffers arriving bytes
	// during a no-MPI-call gap (unlike GM, whose rendezvous data does not
	// even move), but completion still needs a library call, so the wait
	// is the drain copy — far smaller than a full transfer, far larger
	// than Portals' flag check.
	const idle = 200 * sim.Millisecond
	tcp := measureWait(t, "tcp", idle)
	if tcp < 100*sim.Microsecond {
		t.Errorf("tcp wait = %v; socket drain must cost real time (no full offload)", tcp)
	}
	// A full 100 KB transfer on Fast Ethernet takes ~8.5 ms; the drain
	// copy takes well under 2 ms.  Being below that proves the kernel
	// moved the bytes during the gap.
	if tcp > 3*sim.Millisecond {
		t.Errorf("tcp wait = %v; bytes should already be in the socket buffer", tcp)
	}
}

func TestEMPOffloadSignature(t *testing.T) {
	const idle = 100 * sim.Millisecond
	if w := measureWait(t, "emp", idle); w > sim.Millisecond {
		t.Errorf("emp wait = %v; NIC-driven EMP must complete during the gap", w)
	}
}

func TestTCPStealsCPUDuringWork(t *testing.T) {
	// Interrupts, protocol processing and socket copies+checksums land
	// during the application's work phase.
	if r := workDilation(t, "tcp"); r < 1.05 {
		t.Fatalf("tcp work dilation = %.3fx, want visible kernel overhead", r)
	}
}

func TestEMPStealsNoCPUDuringWork(t *testing.T) {
	if r := workDilation(t, "emp"); r > 1.01 {
		t.Fatalf("emp work dilation = %.3fx, want ~1.0 (zero-copy OS-bypass)", r)
	}
}
