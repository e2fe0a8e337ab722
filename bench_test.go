package comb

// One benchmark per figure (4-18): each iteration regenerates the
// figure's sweep in quick mode from scratch and reports the headline
// numbers the paper's plot shows, so `go test -bench .` doubles as a
// compact reproduction report.  The ablation benchmarks at the bottom
// vary the design parameters DESIGN.md calls out.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"comb/internal/cluster"
	"comb/internal/core"
	"comb/internal/machine"
	"comb/internal/method/collov"
	"comb/internal/method/halo"
	"comb/internal/platform"
	"comb/internal/runner"
	"comb/internal/serve"
	"comb/internal/sim"
	"comb/internal/stats"
	"comb/internal/sweep"
	"comb/internal/transport"
)

// benchFigure regenerates figure id once per iteration and reports the
// peak y value of each series.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	var tbl *Table
	for i := 0; i < b.N; i++ {
		sweep.ClearCache()
		var err error
		tbl, err = BuildFigure(id, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range tbl.Series {
		_, hi := s.YRange()
		b.ReportMetric(hi, "max_"+metricName(s.Name, tbl.YLabel))
	}
}

// metricName squashes a series name + unit into a metric suffix.
func metricName(series, ylabel string) string {
	unit := "y"
	switch {
	case strings.Contains(ylabel, "Bandwidth"):
		unit = "MBps"
	case strings.Contains(ylabel, "Availability"):
		unit = "avail"
	case strings.Contains(ylabel, "us"):
		unit = "us"
	}
	return strings.ReplaceAll(series, " ", "_") + "_" + unit
}

func BenchmarkFig04PollingAvailabilityPortals(b *testing.B) { benchFigure(b, "4") }
func BenchmarkFig05PollingBandwidthPortals(b *testing.B)    { benchFigure(b, "5") }
func BenchmarkFig06PWWAvailabilityPortals(b *testing.B)     { benchFigure(b, "6") }
func BenchmarkFig07PWWBandwidthPortals(b *testing.B)        { benchFigure(b, "7") }
func BenchmarkFig08PollingBandwidthGMvsPortals(b *testing.B) {
	benchFigure(b, "8")
}
func BenchmarkFig09PWWBandwidthGMvsPortals(b *testing.B) { benchFigure(b, "9") }
func BenchmarkFig10PWWPostTime(b *testing.B)             { benchFigure(b, "10") }
func BenchmarkFig11PWWWaitTime(b *testing.B)             { benchFigure(b, "11") }
func BenchmarkFig12WorkOverheadPortals(b *testing.B)     { benchFigure(b, "12") }
func BenchmarkFig13WorkOverheadGM(b *testing.B)          { benchFigure(b, "13") }
func BenchmarkFig14BandwidthVsAvailabilityGM(b *testing.B) {
	benchFigure(b, "14")
}
func BenchmarkFig15BandwidthVsAvailabilityPortals(b *testing.B) {
	benchFigure(b, "15")
}
func BenchmarkFig16MethodsGM(b *testing.B)         { benchFigure(b, "16") }
func BenchmarkFig17MethodsPlusTestGM(b *testing.B) { benchFigure(b, "17") }
func BenchmarkFig18CollectiveOverlap(b *testing.B) { benchFigure(b, "18") }

// bisectBenchCurve is the strategy benchmark's search target: the PWW
// availability-vs-work-interval curve on portals (the Figure 6
// relation), on a dense 33-points-per-decade axis where searching
// actually pays.
func bisectBenchCurve(eng *runner.Engine, axis []int64) sweep.Curve {
	return sweep.Curve{
		Name: "portals",
		Axis: axis,
		Eval: func(x int64, rep int) (float64, float64, error) {
			p := runner.Point{Method: "pww", System: "portals", Params: core.PWWConfig{
				Config:       core.Config{MsgSize: 100_000},
				WorkInterval: x,
				Reps:         20,
			}}
			p.Seed = sweep.RepSeed(0, rep)
			r, err := runner.RunAs[*core.PWWResult](context.Background(), eng, p)
			if err != nil {
				return 0, 0, err
			}
			return float64(x), r.Availability, nil
		},
	}
}

// BenchmarkFigBisectVsGrid measures the strategy layer's engine-run
// cut: finding the 0.5 availability crossover by bisection versus
// evaluating the dense axis.  The dense reference runs once outside the
// timed loop; every iteration pays a cold bisect search on a fresh
// engine.  It reports both run counts and their ratio, and fails if
// bisect lands outside the dense answer's ±1 grid step or spends more
// than 1/5 of the dense runs.
func BenchmarkFigBisectVsGrid(b *testing.B) {
	const target = 0.5
	axis := stats.LogSpaceInt(10_000, 10_000_000, 33)

	denseEng := runner.New(runner.Config{Workers: 4})
	dense, err := sweep.RunCurve(sweep.Options{Engine: denseEng}, bisectBenchCurve(denseEng, axis))
	if err != nil {
		b.Fatal(err)
	}
	denseRuns := denseEng.Stats().Runs
	denseCross := -1
	for i, p := range dense.Points {
		if p.Y >= target {
			denseCross = i
			break
		}
	}
	if denseCross < 0 {
		b.Fatalf("dense curve never crosses %g", target)
	}
	lo := dense.Points[denseCross].X
	if denseCross > 0 {
		lo = dense.Points[denseCross-1].X
	}
	hi := dense.Points[denseCross].X

	st, err := ParseStrategy("bisect:target=0.5")
	if err != nil {
		b.Fatal(err)
	}
	var bisRuns int64
	cross := -1.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := runner.New(runner.Config{Workers: 4})
		s, err := sweep.RunCurve(sweep.Options{Engine: eng, Strategy: st}, bisectBenchCurve(eng, axis))
		if err != nil {
			b.Fatal(err)
		}
		bisRuns = eng.Stats().Runs
		cross = -1
		for _, p := range s.Points {
			if p.Y >= target {
				cross = p.X
				break
			}
		}
	}
	b.StopTimer()
	if cross < lo || cross > hi {
		b.Fatalf("bisect crossover x=%g outside dense ±1 window [%g, %g]", cross, lo, hi)
	}
	if bisRuns*5 > denseRuns {
		b.Fatalf("bisect spent %d engine runs, dense %d — ratio %.1fx below the 5x floor",
			bisRuns, denseRuns, float64(denseRuns)/float64(bisRuns))
	}
	b.ReportMetric(float64(denseRuns), "dense_runs")
	b.ReportMetric(float64(bisRuns), "bisect_runs")
	b.ReportMetric(float64(denseRuns)/float64(bisRuns), "runs_ratio")
}

// benchPollingPoint is the unit benchmark behind the figures: one polling
// measurement per iteration.
func benchPollingPoint(b *testing.B, system string, size int, poll int64) {
	b.Helper()
	var res *PollingResult
	for i := 0; i < b.N; i++ {
		out, err := runPolling(system, 0, PollingConfig{
			Config:       Config{MsgSize: size},
			PollInterval: poll,
			WorkTotal:    25_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		res = out.Polling
	}
	b.ReportMetric(res.BandwidthMBs, "MBps")
	b.ReportMetric(res.Availability, "avail")
}

func BenchmarkPollingPoint(b *testing.B) {
	for _, system := range []string{"gm", "portals", "ideal"} {
		b.Run(system, func(b *testing.B) {
			benchPollingPoint(b, system, 100_000, 100_000)
		})
	}
}

func BenchmarkPWWPoint(b *testing.B) {
	for _, system := range []string{"gm", "portals", "ideal"} {
		b.Run(system, func(b *testing.B) {
			var res *PWWResult
			for i := 0; i < b.N; i++ {
				out, err := runPWW(system, 0, PWWConfig{
					Config:       Config{MsgSize: 100_000},
					WorkInterval: 1_000_000,
					Reps:         10,
				})
				if err != nil {
					b.Fatal(err)
				}
				res = out.PWW
			}
			b.ReportMetric(res.BandwidthMBs, "MBps")
			b.ReportMetric(res.AvgWait.Seconds()*1e6, "wait_us")
		})
	}
}

// --- Ablations (design choices from DESIGN.md §5) ---

// BenchmarkAblationQueueDepth shows the polling queue's effect: depth 1
// is the paper's degenerate ping-pong.
func BenchmarkAblationQueueDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			var res *PollingResult
			for i := 0; i < b.N; i++ {
				out, err := runPolling("gm", 0, PollingConfig{
					Config:       Config{MsgSize: 100_000},
					PollInterval: 10_000,
					WorkTotal:    25_000_000,
					QueueDepth:   depth,
				})
				if err != nil {
					b.Fatal(err)
				}
				res = out.Polling
			}
			b.ReportMetric(res.BandwidthMBs, "MBps")
		})
	}
}

// runCustom measures one PWW point on a hand-configured transport and/or
// platform.
func runCustom(b *testing.B, tr transport.Transport, plat *cluster.Platform, cfg core.PWWConfig) *core.PWWResult {
	b.Helper()
	var res *core.PWWResult
	err := machine.Run(platform.Config{Custom: tr, Platform: plat}, func(m core.Machine) {
		r, err := core.RunPWW(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r != nil {
			res = r
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationEagerThreshold moves GM's protocol switch across the
// 10 KB operating point: with a large threshold the 10 KB messages go
// eager (45 us sends, lower availability); with a small one they go
// rendezvous.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, thresh := range []int{4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("thresh%dKB", thresh>>10), func(b *testing.B) {
			var res *core.PWWResult
			for i := 0; i < b.N; i++ {
				g := transport.NewGM()
				g.Config.EagerThreshold = thresh
				res = runCustom(b, g, nil, core.PWWConfig{
					Config:       core.Config{MsgSize: 10_000},
					WorkInterval: 10_000_000,
					Reps:         10,
				})
			}
			b.ReportMetric(res.AvgWait.Seconds()*1e6, "wait_us")
			b.ReportMetric(res.AvgPostSend.Seconds()*1e6, "post_us")
		})
	}
}

// BenchmarkAblationInterruptCost scales the Portals per-packet interrupt
// cost, which sets the availability plateau of Figure 4.
func BenchmarkAblationInterruptCost(b *testing.B) {
	for _, us := range []int{1, 7, 20} {
		b.Run(fmt.Sprintf("intr%dus", us), func(b *testing.B) {
			var avail float64
			for i := 0; i < b.N; i++ {
				p := transport.NewPortals()
				p.Config.InterruptCost = sim.Time(us) * sim.Microsecond
				res := runCustom(b, p, nil, core.PWWConfig{
					Config:       core.Config{MsgSize: 100_000},
					WorkInterval: 5_000_000,
					Reps:         10,
				})
				avail = res.Availability
			}
			b.ReportMetric(avail, "avail")
		})
	}
}

// BenchmarkAblationCopyBandwidth scales the host memcpy rate, which sets
// Portals' ~50 MB/s bandwidth ceiling (Figure 5).
func BenchmarkAblationCopyBandwidth(b *testing.B) {
	for _, mbps := range []float64{80, 160, 320} {
		b.Run(fmt.Sprintf("copy%.0fMBps", mbps), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				plat := cluster.PlatformPIII500()
				plat.CopyBandwidth = mbps * cluster.MB
				res := runCustom(b, transport.NewPortals(), &plat, core.PWWConfig{
					Config:       core.Config{MsgSize: 100_000},
					WorkInterval: 10_000,
					Reps:         10,
				})
				bw = res.BandwidthMBs
			}
			b.ReportMetric(bw, "MBps")
		})
	}
}

// BenchmarkAblationMTU scales the fabric MTU: smaller packets mean more
// per-packet NIC occupancy (lower GM bandwidth) and more Portals
// interrupts.
func BenchmarkAblationMTU(b *testing.B) {
	for _, mtu := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("mtu%d", mtu), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				plat := cluster.PlatformPIII500()
				plat.Link.MTU = mtu
				res := runCustom(b, transport.NewGM(), &plat, core.PWWConfig{
					Config:       core.Config{MsgSize: 300_000},
					WorkInterval: 10_000,
					Reps:         10,
				})
				bw = res.BandwidthMBs
			}
			b.ReportMetric(bw, "MBps")
		})
	}
}

// BenchmarkAblationPWWBatch varies the PWW batch size (the paper's
// earlier versions interleaved 3-4 message batches).
func BenchmarkAblationPWWBatch(b *testing.B) {
	for _, batch := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				out, err := runPWW("gm", 0, PWWConfig{
					Config:       Config{MsgSize: 100_000},
					WorkInterval: 10_000,
					Reps:         10,
					BatchSize:    batch,
				})
				if err != nil {
					b.Fatal(err)
				}
				bw = out.PWW.BandwidthMBs
			}
			b.ReportMetric(bw, "MBps")
		})
	}
}

// BenchmarkSimulatorThroughput measures the discrete-event engine itself:
// simulated events per wall second under a Portals polling load.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runPolling("portals", 0, PollingConfig{
			Config:       Config{MsgSize: 100_000},
			PollInterval: 10_000,
			WorkTotal:    25_000_000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serve benchmarks (docs/SERVING.md; guarded by benchdiff) ---

// serveBenchSpec is one submittable polling point; varying workTotal
// varies the cache key, so cold-cache iterations never dedupe.
func serveBenchSpec(workTotal int64) []byte {
	return []byte(fmt.Sprintf(
		`{"specVersion": 1, "method": "polling", "system": "ideal", "polling": {"PollInterval": 1000, "WorkTotal": %d}}`,
		workTotal))
}

// serveSubmitWait drives the full client path: POST the spec, long-poll
// the job to a terminal state, fail unless it is done.
func serveSubmitWait(base string, body []byte) error {
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var v serve.View
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	for !v.State.Terminal() {
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s?wait=30s&since=%d", base, v.ID, v.Version))
		if err != nil {
			return err
		}
		err = json.NewDecoder(r.Body).Decode(&v)
		r.Body.Close()
		if err != nil {
			return err
		}
	}
	if v.State != serve.StateDone {
		return fmt.Errorf("job %s: %s: %s", v.ID, v.State, v.Error)
	}
	return nil
}

// benchServeClients runs one op = `clients` concurrent submit+wait
// round trips against srv over real HTTP.
func benchServeClients(b *testing.B, srv *serve.Server, clients int, body func(iter, client int) []byte) {
	b.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				errs[c] = serveSubmitWait(ts.URL, body(i, c))
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServeHotCacheClients: 8 clients submit the identical spec
// against a pre-warmed store — pure service overhead, zero simulations.
func BenchmarkServeHotCacheClients(b *testing.B) {
	srv := serve.New(serve.Config{Store: serve.OpenStore(b.TempDir()), QueueCap: 256})
	defer srv.Close()
	warm := httptest.NewServer(srv.Handler())
	if err := serveSubmitWait(warm.URL, serveBenchSpec(5_000_000)); err != nil {
		b.Fatal(err)
	}
	warm.Close()
	benchServeClients(b, srv, 8, func(_, _ int) []byte {
		return serveBenchSpec(5_000_000)
	})
}

// BenchmarkServeColdCacheClients: 8 clients each submit a distinct spec
// with no store — every submission pays a full simulation.
func BenchmarkServeColdCacheClients(b *testing.B) {
	srv := serve.New(serve.Config{QueueCap: 256})
	defer srv.Close()
	benchServeClients(b, srv, 8, func(iter, client int) []byte {
		return serveBenchSpec(5_000_000 + int64(iter*8+client)*64)
	})
}

// BenchmarkAblationInterleave reproduces the paper's earlier PWW variant:
// keeping several batches in flight sustains bandwidth into larger work
// intervals (and reintroduces library progress on GM).
func BenchmarkAblationInterleave(b *testing.B) {
	for _, il := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("interleave%d", il), func(b *testing.B) {
			var res *PWWResult
			for i := 0; i < b.N; i++ {
				out, err := runPWW("gm", 0, PWWConfig{
					Config:       Config{MsgSize: 100_000},
					WorkInterval: 2_000_000,
					Reps:         20,
					Interleave:   il,
				})
				if err != nil {
					b.Fatal(err)
				}
				res = out.PWW
			}
			b.ReportMetric(res.BandwidthMBs, "MBps")
			b.ReportMetric(res.Availability, "avail")
		})
	}
}

// benchDESNodes runs one full polling measurement per iteration on an
// n-node cluster, with the serial or the conservative parallel engine.
// The 2-node pairs pin "parallel never regresses the classic topology"
// (SimWorkers falls back to serial there); the 8-, 16- and 64-node pairs
// measure the engine's actual speedup as the partition count grows,
// which scripts/benchdiff.sh and the internal/perf speedup test guard.
func benchDESNodes(b *testing.B, nodes, simJ int) {
	b.Helper()
	spec := RunSpec{
		Method: MethodPolling,
		System: "gm",
		Nodes:  nodes,
		Polling: &PollingConfig{
			Config:       Config{MsgSize: 100_000},
			PollInterval: 100_000,
			WorkTotal:    25_000_000,
		},
		SimWorkers: simJ,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDESNodes2Serial(b *testing.B)    { benchDESNodes(b, 0, 0) }
func BenchmarkDESNodes2Parallel(b *testing.B)  { benchDESNodes(b, 0, 4) }
func BenchmarkDESNodes8Serial(b *testing.B)    { benchDESNodes(b, 8, 0) }
func BenchmarkDESNodes8Parallel(b *testing.B)  { benchDESNodes(b, 8, 4) }
func BenchmarkDESNodes16Serial(b *testing.B)   { benchDESNodes(b, 16, 0) }
func BenchmarkDESNodes16Parallel(b *testing.B) { benchDESNodes(b, 16, 4) }
func BenchmarkDESNodes64Serial(b *testing.B)   { benchDESNodes(b, 64, 0) }
func BenchmarkDESNodes64Parallel(b *testing.B) { benchDESNodes(b, 64, 4) }

// runCollov runs one collective-overlap measurement through the facade.
func runCollov(system string, nodes int, p collov.Params) (*collov.Result, error) {
	out, err := Run(context.Background(), RunSpec{
		Method: MethodCollov, System: system, Nodes: nodes, Params: p,
	})
	if err != nil {
		return nil, err
	}
	return out.Value.(*collov.Result), nil
}

// BenchmarkCollovNodes8 times one full 8-rank max-work-injection search
// (allreduce, bisect) per iteration: the whole multi-rank stack — tree
// collectives, nonblocking initiation, the rank-0 coordinated search —
// in one number.
func BenchmarkCollovNodes8(b *testing.B) {
	var res *collov.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := runCollov("gm", 8, collov.Params{Collective: "allreduce", MsgSize: 16 * 1024, Reps: 2, WorkGrid: 16})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.OverlapFraction, "overlap")
	b.ReportMetric(float64(res.Probes), "probes")
}

// BenchmarkHaloNodes8 times one full 8-rank 2D stencil halo exchange
// per iteration (post-work-wait progress on a 4x2 torus).
func BenchmarkHaloNodes8(b *testing.B) {
	var res *halo.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Run(context.Background(), RunSpec{
			Method: MethodHalo, System: "gm", Nodes: 8,
			Params: halo.Params{MsgSize: 8 * 1024, Iters: 8, WorkIters: 200_000},
		})
		if err != nil {
			b.Fatal(err)
		}
		res = out.Value.(*halo.Result)
	}
	b.ReportMetric(res.Availability, "avail")
	b.ReportMetric(res.BandwidthMBs, "MBps")
}

// BenchmarkCollovBisectVsGrid measures the collov search's engine-run
// cut: the dense grid measures every work level (WorkGrid+1 probes),
// bisection finds the same crossing in O(log n) rounds.  The dense
// reference runs once outside the timed loop; the gate demands bisect
// spend at most 1/3 of the grid's probes and land on the same answer.
func BenchmarkCollovBisectVsGrid(b *testing.B) {
	p := collov.Params{Collective: "allreduce", MsgSize: 16 * 1024, Reps: 2, WorkGrid: 32}
	p.Search = "grid"
	dense, err := runCollov("gm", 4, p)
	if err != nil {
		b.Fatal(err)
	}
	p.Search = "bisect"
	var res *collov.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = runCollov("gm", 4, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res.MaxWorkIters != dense.MaxWorkIters {
		b.Fatalf("bisect found max work %d, dense grid %d", res.MaxWorkIters, dense.MaxWorkIters)
	}
	if res.Probes*3 > dense.Probes {
		b.Fatalf("bisect spent %d probes, grid %d — above the 1/3 ceiling", res.Probes, dense.Probes)
	}
	b.ReportMetric(float64(dense.Probes), "grid_probes")
	b.ReportMetric(float64(res.Probes), "bisect_probes")
	b.ReportMetric(float64(dense.Probes)/float64(res.Probes), "probe_ratio")
}
