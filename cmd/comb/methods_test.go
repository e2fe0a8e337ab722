package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"comb"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	w.Close()
	os.Stdout = old
	out, rerr := io.ReadAll(r)
	if ferr != nil {
		t.Fatal(ferr)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out)
}

// TestMethodsMatrixGolden pins the `comb methods` capability matrix
// byte for byte: a new method, a renamed capability column, or a method
// gaining/losing an optional interface must show up here.
func TestMethodsMatrixGolden(t *testing.T) {
	got := captureStdout(t, cmdMethods)
	want := `method     calib  check  relax  fuzz  flags  nodes  description
collov     -      x      -      x     x      x      collective/computation overlap via max-work-injection (allreduce or bcast)
           phases: ref, probe
halo       -      x      -      x     x      x      2D stencil halo exchange on a rank torus: polling vs post-work-wait progress
           phases: exchange
netperf    -      x      x      x     x      -      delay loop sharing a node with a message stream: the availability misreporter (paper §5)
           phases: dry, loop
pingpong   -      x      -      x     x      x      blocking send/recv round trips: the latency and bandwidth baseline
           phases: exchange
polling    x      x      -      x     x      x      work chunks interleaved with completion polls at a swept poll interval (paper §2.1)
           phases: dry, work, poll, drain
pww        x      x      -      x     x      x      post-work-wait cycles timing each MPI call around a work phase (paper §2.2; -test plants the §4.3 rescue call)
           phases: dry, post, work, wait
`
	if got != want {
		t.Errorf("comb methods output drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunMethodPollingBlock pins `comb polling`'s output: the paper's
// multi-line block with the CLI's 25M-iteration work default, printed
// identically for the same point written as a -spec document.
func TestRunMethodPollingBlock(t *testing.T) {
	ctx := context.Background()
	got := captureStdout(t, func() error {
		return runMethod(ctx, "polling", []string{"-system", "ideal", "-obs-dir", ""})
	})
	for _, want := range []string{
		"system          ideal\n",
		"poll interval   100000 iterations\n",
		"work total      25000000 iterations\n",
		"queue depth     4\n",
		"availability    ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("polling output lacks %q:\n%s", want, got)
		}
	}
	doc, err := json.Marshal(comb.RunSpec{
		Method:  comb.MethodPolling,
		System:  "ideal",
		Polling: &comb.PollingConfig{PollInterval: 100_000, WorkTotal: 25_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	fromSpec := captureStdout(t, func() error {
		return cmdRun(ctx, []string{"-spec", string(doc), "-obs-dir", ""})
	})
	if fromSpec != got {
		t.Errorf("run -spec output differs from comb polling:\n%s\nwant:\n%s", fromSpec, got)
	}
}

// TestRunMethodPWWBlock pins `comb pww`'s per-call timing lines.
func TestRunMethodPWWBlock(t *testing.T) {
	got := captureStdout(t, func() error {
		return runMethod(context.Background(), "pww", []string{"-system", "ideal", "-reps", "3", "-obs-dir", ""})
	})
	for _, want := range []string{
		"reps x batch    3 x 4 (test-in-work: false)\n",
		"post (recv)     ",
		"post (send)     ",
		"wait            ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("pww output lacks %q:\n%s", want, got)
		}
	}
}

// TestRunMethodStats checks -stats is a shared single-run flag: a
// method without a dedicated block still prints the hardware counters.
func TestRunMethodStats(t *testing.T) {
	got := captureStdout(t, func() error {
		return runMethod(context.Background(), "pingpong", []string{"-system", "ideal", "-reps", "2", "-stats", "-obs-dir", ""})
	})
	for _, want := range []string{
		"pingpong ideal size=",
		"--- hardware counters (whole run incl. setup/drain) ---\n",
		"node0 CPU       user ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("pingpong -stats output lacks %q:\n%s", want, got)
		}
	}
}
