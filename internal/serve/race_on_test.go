//go:build race

package serve

// raceEnabled reports whether the race detector instruments this build;
// its instrumentation allocates on a schedule of its own.
const raceEnabled = true
