// Package obs is COMB's structured observability layer: virtual-time
// spans, exportable metrics, and run manifests, threaded through every
// run so that a measurement can be inspected (where did the wall clock
// go?), monitored (what did the run do?), and reproduced (what exactly
// was run?) without re-instrumenting anything.
//
// It has three load-bearing pieces.
//
// # Spans
//
// A Span is one named, timed interval on a rank's virtual-time
// timeline, collected into a bounded-ring Collector (recording the most
// recent spans in a Ring, the same ring a run's packet instants use).
// Span categories form a small fixed taxonomy:
//
//   - CatPhase ("phase") — the benchmark engines' own phases, emitted by
//     the worker rank of internal/core: "dry" (the no-communication
//     calibration run), "post", "work", "wait" (the PWW method's cycle
//     phases, one span per rep), "poll" (the polling method's completion
//     poll + echo servicing), and "drain" (the termination handshake).
//     Phase spans additionally feed the comb_phase_seconds histogram of
//     the attached metrics Registry.
//   - CatMPI ("mpi") — per-message spans from post to completion
//     ("send" / "recv"), recorded by the mpi.Meter on every rank; the
//     span's "bytes" argument carries the payload size.
//   - CatRunner ("runner") — the sweep engine's per-point lifecycle
//     (wall-clock, not virtual time; exported on its own process track):
//     one span per resolved point, with "source" (memory/disk/run) and
//     "attempt" arguments.
//
// A Collector's Capture — spans plus optional CatPacket Instants, one
// per fabric delivery when a run sets a trace capacity — serializes to
// JSON (Capture.Save) and exports as Chrome trace-event JSON
// (WriteChromeTrace), so `comb trace export -format=chrome` produces a
// file that chrome://tracing and Perfetto open directly.  The simulation is deterministic, so two runs of the
// same spec produce byte-identical exports (the golden trace test
// asserts this).
//
// # Metrics
//
// A Registry holds named counters, gauges and histograms.  Counters are
// a single atomic add on the hot path; histograms take one short mutex.
// Names follow the Prometheus convention, with the label set baked into
// the registered name:
//
//	comb_messages_posted_total{kind="send"|"recv"}     messages posted (count)
//	comb_messages_completed_total{kind="send"|"recv"}  requests completed (count)
//	comb_message_bytes_total{kind="send"|"recv"}       payload bytes of completed requests
//	comb_packets_total{fate="sent"|"delivered"|"lost"|"injected_drop"|"injected_dup"}
//	                                                   fabric packets by fate (count)
//	comb_wire_bytes_total                              bytes on the wire, headers included
//	comb_phase_seconds{phase=...}                      per-phase durations (histogram, virtual seconds)
//	comb_runner_points_total{source="memory"|"disk"|"run"}
//	                                                   sweep points by answer source (count)
//	comb_runner_retries_total                          extra attempts after failed simulations
//	comb_runner_workers                                configured worker-pool size (gauge)
//	comb_runner_inflight_peak                          peak concurrent simulations (gauge)
//
// The registry renders as Prometheus text exposition format
// (WritePrometheus) and as a deterministic JSON Snapshot embedded in
// sweep output and saved by the CLI as metrics.json.
//
// # Manifests
//
// A Manifest is the full experimental record of one run — method,
// system, configuration, seed, fault spec and the tolerance mask that
// was applied to it, plus toolchain provenance (Go version, VCS
// revision) and a SHA-256 hash of the canonical result — written as
// manifest.json next to the run's other artifacts and as
// figNN.manifest.json next to every figure CSV.  Any figure is
// replayable from its manifest alone: `comb replay -manifest <file>`
// re-runs the recorded spec and verifies the result hash bit-for-bit.
//
// The package depends only on internal/core (config types in the
// manifest) and the standard library, so every other layer — mpi,
// machine, runner, the root facade and the CLI — can feed it without
// import cycles.
package obs
