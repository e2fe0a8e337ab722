// Offloaddetect reproduces the paper's §4.1/§4.3 methodology as a
// reusable diagnostic: given a system, decide from COMB's post-work-wait
// signature whether it provides application offload, where its host
// cycles go, and whether a single MPI_Test in the work phase rescues
// progress (the MPI progress-rule violation the paper calls out).
//
// Run with: go run ./examples/offloaddetect
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"comb"
)

// report is the diagnosis for one system.
type report struct {
	system     string
	wait       time.Duration
	overhead   float64
	offload    bool
	testHelps  bool
	gainWithMT float64
}

func diagnose(system string) (report, error) {
	const (
		size = 100_000
		work = 10_000_000 // ~20 ms: long enough to hide a 100 KB transfer
	)
	pww := func(testInWork bool) (*comb.PWWResult, error) {
		out, err := comb.Run(context.Background(), comb.RunSpec{
			Method: comb.MethodPWW,
			System: system,
			PWW: &comb.PWWConfig{
				Config:       comb.Config{MsgSize: size},
				WorkInterval: work,
				Reps:         10,
				TestInWork:   testInWork,
			},
		})
		if err != nil {
			return nil, err
		}
		return out.PWW, nil
	}
	base, err := pww(false)
	if err != nil {
		return report{}, err
	}
	withTest, err := pww(true)
	if err != nil {
		return report{}, err
	}
	gain := withTest.BandwidthMBs/base.BandwidthMBs - 1
	return report{
		system:     system,
		wait:       base.AvgWait,
		overhead:   base.WorkOverhead,
		offload:    base.Offloaded(),
		testHelps:  gain > 0.05,
		gainWithMT: gain,
	}, nil
}

func main() {
	fmt.Println("COMB application-offload detector (paper sections 4.1 and 4.3)")
	fmt.Println()
	fmt.Printf("%-10s %14s %12s %10s %18s\n",
		"system", "wait/msg", "work ovhd", "offload?", "MPI_Test gain")
	for _, system := range comb.Systems() {
		r, err := diagnose(system)
		if err != nil {
			log.Fatal(err)
		}
		offload := "no"
		if r.offload {
			offload = "YES"
		}
		fmt.Printf("%-10s %14v %11.1f%% %10s %17.1f%%\n",
			r.system, r.wait.Round(time.Microsecond), r.overhead*100, offload, r.gainWithMT*100)
	}
	fmt.Println()
	fmt.Println("Reading the table:")
	fmt.Println(" * wait/msg ~ 0 with a long work phase  => the system progressed")
	fmt.Println("   messages with no MPI calls: application offload (paper Fig 11).")
	fmt.Println(" * work overhead > 0                    => communication steals host")
	fmt.Println("   cycles from the work phase (paper Fig 12).")
	fmt.Println(" * a large MPI_Test gain                => progress lives inside the")
	fmt.Println("   MPI library, violating the MPI progress rule (paper Fig 17).")
	os.Exit(0)
}
