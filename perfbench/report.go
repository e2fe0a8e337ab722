package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints on its last line, in
// BENCHMARK.json order.  Each one applies to all four workloads and is
// steady from run to run.  Operation percentiles are reported but not
// gated: on the batch workloads an operation is one of a few dozen
// distinct fixed-cost specs, so a percentile jumps between neighbours
// while the mean does not.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"op_mean_ms", "ms"}, {"setup_s", "s"}, {"rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints on its last line, in
// BENCHMARK.json order: the layers every workload's simulations cross,
// counted by probe, plus the tracing overhead.  Simulated CPU time is
// virtual (units vs and vus), never wall time.
var perLayer = []metricDef{
	{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.windows", "count"}, {"sim.stall_ratio", "ratio"},
	{"cluster.packets", "count"}, {"cluster.packets_per_s", "1/s"}, {"cluster.wire_mb", "MB"},
	{"cluster.user_vs", "vs"}, {"cluster.kernel_vs", "vs"}, {"cluster.interrupt_vs", "vs"},
	{"transport.host_us_per_msg", "vus/msg"},
	{"mpi.messages", "count"}, {"mpi.mb", "MB"}, {"mpi.coll_stages", "count"},
	{"method.execute_ms_p50", "ms"}, {"method.execute_ms_max", "ms"}, {"method.runs", "count"},
	{"platform.build_ms", "ms"}, {"platform.parallel_share", "ratio"},
	{"spec.normalize_us", "us"}, {"runpipe.hash_us", "us"},
	{"faultinject.dropped", "count"}, {"faultinject.duplicated", "count"},
	{"trace.overhead_s", "s"},
}

// workloadLayer are per-layer metrics of layers only some workloads
// call.  A traced run reports those it measured and names the rest as
// absent, with the reason.
var workloadLayer = []metricDef{
	{"runner.runs", "count"}, {"runner.mem_hits", "count"}, {"runner.calib_hits", "count"},
	{"runner.shared_hits", "count"}, {"runner.point_max_s", "s"}, {"runner.idle_s", "s"},
	{"sweep.shape_ms", "ms"},
	{"serve.submit_ms", "ms"}, {"serve.hot_wait_ms", "ms"}, {"serve.cold_wait_ms", "ms"},
	{"serve.run_ms", "ms"}, {"serve.cold_overhead_ms", "ms"}, {"serve.store_get_us", "us"},
	{"serve.cache_jobs", "count"}, {"serve.run_jobs", "count"}, {"serve.shared_jobs", "count"},
	{"scenario.cells", "count"}, {"scenario.run_s", "s"}, {"scenario.evaluate_s", "s"},
	{"scenario.violations", "count"},
}

// summary is one metric's reading: a median with its quartiles and
// sample count, a tail percentile (Pct) with its sample count and the
// number of samples beyond it, or a single value.
type summary struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	N      int     `json:"n,omitempty"`
	Pct    float64 `json:"pct,omitempty"`
	Beyond int     `json:"beyond,omitempty"`
}

func spread(unit string, xs []float64, scale float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Unit: unit, Value: med * scale, Q1: q1 * scale, Q3: q3 * scale, N: len(xs)}
}

func tailOf(unit string, xs []float64, pct, scale float64) summary {
	v, beyond := percentile(xs, pct)
	return summary{Unit: unit, Value: v * scale, N: len(xs), Pct: pct, Beyond: beyond}
}

// report is everything one run measured; --out writes it whole.
type report struct {
	Workload    string             `json:"workload"`
	Stamp       stamp              `json:"stamp"`
	SeedApplies bool               `json:"seed_applies"`
	Traced      bool               `json:"traced"`
	Passes      int                `json:"passes"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	ErrorRate   float64            `json:"error_rate"`
	Failures    []string           `json:"failures,omitempty"`
	Metrics     map[string]summary `json:"metrics"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Absent      map[string]string  `json:"absent,omitempty"`
	SelfS       map[string]float64 `json:"self_s,omitempty"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the shape of the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// result carries the end-to-end metrics, or the per-layer ones when the
// run was traced.
func (r *report) result() result {
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	if r.Traced {
		for _, d := range perLayer {
			res.Metrics[d.name] = resultValue{r.Layers[d.name], d.unit}
		}
		return res
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = resultValue{r.Metrics[d.name].Value, d.unit}
	}
	return res
}

// absentLayers names each workload-layer metric the run did not measure.
func absentLayers(layers map[string]float64) map[string]string {
	absent := map[string]string{}
	for _, d := range workloadLayer {
		if _, ok := layers[d.name]; !ok {
			absent[d.name] = fmt.Sprintf("this workload does not call the %s layer", layerOf(d.name))
		}
	}
	return absent
}

func writeReport(path string, r *report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport renders the report for a reader.  Every metric carries its
// unit, medians their quartiles, tail percentiles their sample counts.
func printReport(w io.Writer, r *report) {
	seed := fmt.Sprint(r.Stamp.Seed)
	if !r.SeedApplies {
		seed += " (not applied: fixed committed inputs)"
	}
	fmt.Fprintf(w, "workload  %s  seed %s  traced %v  passes %d\n", r.Workload, seed, r.Traced, r.Passes)
	fmt.Fprintf(w, "host      %s  commit %s\n", r.Stamp.host(), r.Stamp.Commit)
	fmt.Fprintf(w, "gates     attempted %d  failed %d  error_rate %g\n", r.Attempted, r.Failed, r.ErrorRate)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	fmt.Fprintln(w, "end-to-end (untraced passes)")
	for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
		s := r.Metrics[name]
		line := fmt.Sprintf("  %-15s %12.6g %-4s", name, s.Value, s.Unit)
		switch {
		case s.Pct > 0:
			line += fmt.Sprintf("  p%g of n=%d, %d beyond", s.Pct, s.N, s.Beyond)
		case s.Q3 > 0:
			line += fmt.Sprintf("  median of n=%d, q1 %.6g, q3 %.6g", s.N, s.Q1, s.Q3)
		case s.N > 0:
			line += fmt.Sprintf("  mean of n=%d", s.N)
		}
		fmt.Fprintln(w, line)
	}
	if !r.Traced {
		return
	}
	fmt.Fprintln(w, "per-layer (traced pass and its counter probes)")
	for _, d := range append(slices.Clone(perLayer), workloadLayer...) {
		if v, ok := r.Layers[d.name]; ok {
			fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.name, v, d.unit)
		} else {
			fmt.Fprintf(w, "  %-26s %14s (%s)\n", d.name, "absent", r.Absent[d.name])
		}
	}
	fmt.Fprintln(w, "self time of the traced pass, by layer")
	for _, l := range slices.Sorted(maps.Keys(r.SelfS)) {
		fmt.Fprintf(w, "  %-12s %10.4f s\n", l, r.SelfS[l])
	}
}
