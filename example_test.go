package comb_test

import (
	"context"
	"fmt"

	"comb"
)

// The polling method reports bandwidth and CPU availability as functions
// of how often the application polls for completions.  Simulation runs
// are deterministic, so this example's output is exact.
func ExampleRun() {
	out, err := comb.Run(context.Background(), comb.RunSpec{
		Method: comb.MethodPolling,
		System: "gm",
		Polling: &comb.PollingConfig{
			Config:       comb.Config{MsgSize: 100_000},
			PollInterval: 100_000,
			WorkTotal:    25_000_000,
		},
	})
	if err != nil {
		panic(err)
	}
	res := out.Polling
	fmt.Printf("%.1f MB/s at availability %.2f\n", res.BandwidthMBs, res.Availability)
	// Output: 86.2 MB/s at availability 0.98
}

// The post-work-wait method detects application offload: with a long
// no-MPI-call work phase, GM's wait stays at a full transfer time while
// Portals' drops to a flag check.
func ExampleRun_postWorkWait() {
	for _, system := range []string{"gm", "portals"} {
		out, err := comb.Run(context.Background(), comb.RunSpec{
			Method: comb.MethodPWW,
			System: system,
			PWW: &comb.PWWConfig{
				Config:       comb.Config{MsgSize: 100_000},
				WorkInterval: 20_000_000,
				Reps:         10,
			},
		})
		if err != nil {
			panic(err)
		}
		res := out.PWW
		offload := "no offload"
		if res.Offloaded() {
			offload = "application offload"
		}
		fmt.Printf("%s: wait %v/msg -> %s\n", system, res.AvgWait, offload)
	}
	// Output:
	// gm: wait 1.170648ms/msg -> no offload
	// portals: wait 125ns/msg -> application offload
}

// Every evaluation figure of the paper can be regenerated as a data
// table; quick mode shrinks the sweep.
func ExampleBuildFigure() {
	tbl, err := comb.BuildFigure("13", true)
	if err != nil {
		panic(err)
	}
	fmt.Println(tbl.Title)
	fmt.Println(len(tbl.Series), "series:", tbl.Series[0].Name, "/", tbl.Series[1].Name)
	// Output:
	// Figure 13: PWW Method: CPU Overhead for GM
	// 2 series: Work with MH / Work Only
}

// Systems lists the simulated messaging stacks available for comparison.
func ExampleSystems() {
	fmt.Println(comb.Systems())
	// Output: [emp gm ideal portals tcp]
}
