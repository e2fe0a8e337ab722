// Netperfvscomb reproduces the paper's §5 argument against netperf-style
// CPU-availability measurement for MPI systems: it runs the netperf
// two-processes-on-one-node measurement in both waiting modes next to
// COMB's single-process polling measurement, on identical simulated
// hardware.  All three measurements are registered methods run through
// the same comb.Run pipeline.
//
// Run with: go run ./examples/netperfvscomb
package main

import (
	"context"
	"fmt"
	"log"

	"comb"
)

const (
	size      = 100_000
	loopIters = 25_000_000
)

// netperf runs the netperf-style measurement in the given wait mode and
// returns the availability it reports.
func netperf(system, mode string) float64 {
	out, err := comb.Run(context.Background(), comb.RunSpec{
		Method: comb.MethodNetperf,
		System: system,
		Params: comb.NetperfConfig{Mode: mode, MsgSize: size, LoopIters: loopIters},
	})
	if err != nil {
		log.Fatal(err)
	}
	return out.Value.(*comb.NetperfResult).Availability
}

func main() {
	fmt.Println("CPU availability during communication: netperf vs COMB")
	fmt.Println()
	fmt.Printf("%-10s %18s %18s %14s\n",
		"system", "netperf(select)", "netperf(busywait)", "COMB polling")
	for _, system := range []string{"gm", "portals"} {
		out, err := comb.Run(context.Background(), comb.RunSpec{
			Method: comb.MethodPolling,
			System: system,
			Polling: &comb.PollingConfig{
				Config:       comb.Config{MsgSize: size},
				PollInterval: 100_000,
				WorkTotal:    loopIters,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %18.3f %18.3f %14.3f\n",
			system, netperf(system, comb.NetperfSelect), netperf(system, comb.NetperfBusyWait),
			out.Polling.Availability)
	}
	fmt.Println()
	fmt.Println("GM really leaves the host ~fully available (COMB ~1.0), but a")
	fmt.Println("busy-waiting MPI process makes netperf report ~0.5 — the waiter")
	fmt.Println("never relinquishes the CPU the way netperf's select-based design")
	fmt.Println("assumes.  COMB avoids both problems by running one process per")
	fmt.Println("node and folding the polling into that process's own work loop.")
}
