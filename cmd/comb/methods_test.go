package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
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
	got := captureStdout(t, func() error { return cmdMethods(context.Background(), nil) })
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

// TestRunMethodPollingBlock pins `comb run -method polling`'s output:
// the paper's multi-line block with the CLI's 25M-iteration work
// default, printed identically for the same point written as a -spec
// document.
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
		t.Errorf("run -spec output differs from run -method polling:\n%s\nwant:\n%s", fromSpec, got)
	}
}

// TestRunMethodPWWBlock pins `comb run -method pww`'s per-call timing lines.
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

// TestRunTraceGolden pins the -trace N block byte for byte against
// testdata: the header with its per-category count, the dropped-events
// line once the ring wraps, and each delivery's virtual time, node,
// 10-wide category column and detail.  Regenerate with COMB_GOLDEN=1
// after reviewing an intended format change.
func TestRunTraceGolden(t *testing.T) {
	cases := []struct {
		golden string
		method string
		args   []string
	}{
		// 452 deliveries into a 6-slot ring.
		{"trace_wrapped.txt", "polling", []string{"-system", "portals", "-size", "10000", "-poll", "10000", "-work", "2000000", "-trace", "6"}},
		// 14 deliveries into a 64-slot ring.
		{"trace_unwrapped.txt", "pingpong", []string{"-system", "gm", "-size", "10000", "-reps", "2", "-trace", "64"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			got := captureStdout(t, func() error {
				return runMethod(context.Background(), c.method, append(c.args, "-obs-dir", ""))
			})
			golden := filepath.Join("testdata", c.golden)
			if os.Getenv("COMB_GOLDEN") == "1" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with COMB_GOLDEN=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("-trace output drifted from %s.\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}

// TestRunTraceColumnAlignment pins the layout of a -trace line: the
// time right-aligned in 12 columns, the node, the category in a 10-wide
// column, then the detail, so the details line up down the block
// whichever node received the packet.
func TestRunTraceColumnAlignment(t *testing.T) {
	got := captureStdout(t, func() error {
		return runMethod(context.Background(), "collov", []string{"-system", "gm", "-nodes", "8", "-trace", "12", "-obs-dir", ""})
	})
	_, block, ok := strings.Cut(got, "--- last 12 packet deliveries (pkt=12) ---\n")
	if !ok {
		t.Fatalf("no -trace header for a full 12-slot ring in:\n%s", got)
	}
	line := regexp.MustCompile(`^ {0,11}\S+ node\d pkt {8}from node\d, \d+B$`)
	lines := strings.Split(strings.TrimRight(block, "\n"), "\n")
	if len(lines) > 0 && strings.HasSuffix(lines[0], "earlier events dropped)") {
		lines = lines[1:]
	}
	if len(lines) != 12 {
		t.Fatalf("%d delivery lines, want 12:\n%s", len(lines), block)
	}
	// 12 (time) + 1 + 5 ("nodeN") + 1 + 10 (category) + 1.
	const detailCol = 30
	for _, l := range lines {
		if !line.MatchString(l) || len(l) < detailCol || l[12] != ' ' || !strings.HasPrefix(l[detailCol:], "from ") {
			t.Errorf("misaligned -trace line %q", l)
		}
	}
}
