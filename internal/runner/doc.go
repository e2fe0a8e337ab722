// Package runner is COMB's experiment scheduler: it executes sweep points
// across a bounded worker pool with two cache tiers in front of the
// simulator.  Every point is an independent two-node simulation, so a
// figure sweep parallelizes perfectly; the engine adds context
// cancellation, a per-point timeout and a progress callback on top.
//
// Cache tiers, checked in order:
//
//  1. an in-memory memo (the same memoization internal/sweep always had),
//  2. an optional on-disk JSON cache (see Cache), so repeated figure
//     builds across processes hit disk instead of re-simulating.
//
// The simulation is deterministic, so a cached result is byte-identical
// to a fresh run with the same key.
package runner
