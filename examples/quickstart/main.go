// Quickstart: run both COMB methods on the two systems the paper compares
// and print the headline numbers — sustained bandwidth, CPU availability,
// and the per-phase timings that reveal application offload.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"comb"
)

func main() {
	fmt.Println("COMB quickstart: Communication Offload MPI-based Benchmark")
	fmt.Println("two simulated systems, one 100 KB workload")
	fmt.Println()

	for _, system := range []string{"gm", "portals"} {
		fmt.Printf("=== %s ===\n", system)

		// Polling method: maximum achievable overlap.
		pollRes, err := comb.Run(context.Background(), comb.RunSpec{
			Method: comb.MethodPolling,
			System: system,
			Polling: &comb.PollingConfig{
				Config:       comb.Config{MsgSize: 100_000},
				PollInterval: 100_000,    // iterations between completion polls
				WorkTotal:    25_000_000, // ~50 ms of work on the 500 MHz model
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		poll := pollRes.Polling
		fmt.Printf("  polling:  %6.2f MB/s sustained at %.3f CPU availability\n",
			poll.BandwidthMBs, poll.Availability)

		// Post-work-wait method: overlap under the no-MPI-calls-during-
		// work restriction real applications live with.
		pwwRes, err := comb.Run(context.Background(), comb.RunSpec{
			Method: comb.MethodPWW,
			System: system,
			PWW: &comb.PWWConfig{
				Config:       comb.Config{MsgSize: 100_000},
				WorkInterval: 10_000_000, // ~20 ms work phase
				Reps:         10,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		pww := pwwRes.PWW
		fmt.Printf("  pww:      post %v/msg, work overhead %.1f%%, wait %v/msg\n",
			pww.AvgPostRecv, pww.WorkOverhead*100, pww.AvgWait)

		// The paper's §4.1 diagnosis, from the PWW signature.
		switch {
		case pww.Offloaded() && pww.WorkOverhead < 0.02:
			fmt.Println("  verdict:  application offload, no host overhead")
		case pww.Offloaded():
			fmt.Println("  verdict:  application offload, but communication steals host CPU")
		case pww.WorkOverhead < 0.02:
			fmt.Println("  verdict:  no application offload (messages wait for MPI calls); host otherwise idle")
		default:
			fmt.Println("  verdict:  no application offload and host overhead")
		}
		fmt.Println()
	}

	fmt.Println("Interpretation (matches the paper's Figures 8-13): GM moves data")
	fmt.Println("faster and steals no CPU, but only progresses inside MPI calls;")
	fmt.Println("Portals progresses autonomously at the price of interrupts and")
	fmt.Println("kernel copies on every packet.")
}
