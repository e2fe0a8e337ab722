package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// stamp records the host and inputs a report was measured on.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func hostStamp(root string, seed uint64) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commitOf(root),
		Seed:       seed,
	}
}

// host is the part of a stamp two reports must share to be compared.
func (s stamp) host() string {
	return fmt.Sprintf("nproc %d  GOMAXPROCS %d  %s  %q", s.NProc, s.GOMAXPROCS, s.GoVersion, s.CPUModel)
}

func cpuModel() string {
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// commitOf names the checkout's commit: git's HEAD in a work tree, else
// a digest of the Go sources, so exported trees are told apart too.
func commitOf(root string) string {
	git := filepath.Join(root, ".git")
	if head, err := os.ReadFile(filepath.Join(git, "HEAD")); err == nil {
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if b, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(filepath.Join(git, "packed-refs")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if h, r, ok := strings.Cut(line, " "); ok && r == ref {
					return h
				}
			}
		}
	}
	return "tree-" + treeDigest(root)
}

// treeDigest hashes every .go and go.mod file under root, skipping
// dot-directories such as the build directory.
func treeDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compareMain prints the end-to-end metrics of two saved reports side by
// side.  It refuses reports from different hosts or workloads: their
// numbers do not measure the same thing.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: compare:", err)
			return 1
		}
	}
	a, b := reps[0], reps[1]
	if err := comparable(a, b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: compare:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s  host %s\n", a.Workload, a.Stamp.host())
	fmt.Fprintf(stdout, "old commit %s seed %d  new commit %s seed %d\n", a.Stamp.Commit, a.Stamp.Seed, b.Stamp.Commit, b.Stamp.Seed)
	for _, name := range slices.Sorted(maps.Keys(a.Metrics)) {
		nb, ok := b.Metrics[name]
		if !ok {
			continue
		}
		change := "n/a"
		if v := a.Metrics[name].Value; v != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(nb.Value/v-1))
		}
		fmt.Fprintf(stdout, "  %-15s %12.6g -> %12.6g %-4s %s\n", name, a.Metrics[name].Value, nb.Value, nb.Unit, change)
	}
	return 0
}

func comparable(a, b report) error {
	if a.Stamp.host() != b.Stamp.host() {
		return fmt.Errorf("reports come from different hosts (%s vs %s)", a.Stamp.host(), b.Stamp.host())
	}
	if a.Workload != b.Workload {
		return fmt.Errorf("reports are of different workloads (%s vs %s)", a.Workload, b.Workload)
	}
	return nil
}
