// Package perf holds the simulator's microbenchmark suite: tight-loop
// benchmarks for the event core (Env.Schedule and dispatch), the CPU
// scheduler (SubmitCall, and Use both quiet and queued), the fabric
// (Send, SendMessage) and the Portals per-packet chain, periodic and
// saturated, each reporting ns/op and allocs/op (the chains also report
// the event queue's work per packet), plus AllocsPerRun regression tests
// pinning the zero-allocation guarantees of the fault-free hot path.
//
// The figure-level macrobenchmarks live in the repository root
// (bench_test.go) and are gated by scripts/benchdiff.sh against
// BENCH_baseline.json, as are the two packet chains; this package
// isolates the layers underneath them so a regression can be attributed
// without profiling.  Run with:
//
//	go test ./internal/perf -bench . -benchmem
//
// docs/PERFORMANCE.md describes the workflow, including the profiling
// entry point (comb bench -profile).
package perf
