// Command comb runs the COMB benchmark suite on the simulated systems and
// regenerates the paper's evaluation figures.  `comb help` lists the
// subcommands, and `comb <subcommand> -h` a subcommand's flags.
// Ctrl-C cancels a running command mid-point.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"comb"
	"comb/internal/asciichart"
	"comb/internal/assess"
	"comb/internal/method"
	"comb/internal/obs"
	"comb/internal/report"
	"comb/internal/runner"
	"comb/internal/scenario"
	"comb/internal/selfcheck"
	"comb/internal/sim"
	"comb/internal/stats"
	"comb/internal/sweep"
	"comb/internal/transport"
)

// command is one subcommand: its name, its one-line help, and the
// function that runs it on the arguments after the name.
type command struct {
	name, help string
	run        func(ctx context.Context, args []string) error
}

// commands is the CLI, in the order `comb help` lists it.
var commands = []command{
	{"list", "list reproducible figures and simulated systems", cmdList},
	{"methods", "list registered benchmark methods and their phases", cmdMethods},
	{"run", "run one measurement: -method <name> plus its flags, or -spec <file.json>", cmdRun},
	{"trace", "export the last run's span timeline (trace export -format=chrome|text)", cmdTrace},
	{"metrics", "print the last run's metrics (-format prom|json)", cmdMetrics},
	{"replay", "re-run a saved manifest and verify its result hash", cmdReplay},
	{"figure", "regenerate figure <n|all> (Figures 4-18)", cmdFigure},
	{"assess", "full COMB characterization of one system (or 'all')", cmdAssess},
	{"sweep", "custom parameter sweep over any systems/sizes/metric", cmdSweep},
	{"cache", "manage the on-disk result cache (clear|stat)", cmdCache},
	{"serve", "run the benchmark service (HTTP API over versioned RunSpecs)", cmdServe},
	{"submit", "post a spec file to a running server and await the result", cmdSubmit},
	{"bench", "time a hot-path workload; -profile writes CPU/heap pprof files", cmdBench},
	{"selfcheck", "verify calibration and headline claims (-fuzz N, -pack NAME|all)", cmdSelfcheck},
	{"report", "write the full reproduction report as markdown", cmdReport},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run executes one command line and returns its exit code: 0 on
// success, 1 when the subcommand fails, 2 for an unknown or missing
// subcommand.  Usage and errors go to stderr.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		if err := c.run(ctx, args[1:]); err != nil {
			fmt.Fprintf(stderr, "comb: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "comb: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprint(w, "usage: comb <subcommand> [flags]\n\nsubcommands:\n")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.help)
	}
	fmt.Fprintln(w, `
figure, sweep, assess and report run their points in parallel (-j N) and
cache them in results/cache/ (-no-cache skips it); figure and sweep take
-strategy (docs/SWEEPS.md).  run takes -seed, -faults, -stats and
-trace N, and writes the artifacts that trace, metrics and replay read
into -obs-dir.  Run 'comb <subcommand> -h' for its flags.`)
}

// engineOpts are the execution flags shared by every sweep-shaped
// subcommand (figure, sweep, assess, report).
type engineOpts struct {
	jobs    *int
	simJ    *int
	noCache *bool
	dir     *string
}

func addEngineFlags(fs *flag.FlagSet) *engineOpts {
	return &engineOpts{
		jobs:    fs.Int("j", 0, "parallel simulations (0 = GOMAXPROCS)"),
		simJ:    fs.Int("sim-j", 0, "parallel DES partitions per simulation (needs -nodes > 2; results are identical)"),
		noCache: fs.Bool("no-cache", false, "skip the on-disk result cache"),
		dir:     fs.String("cache-dir", runner.DefaultCacheDir, "on-disk result cache directory"),
	}
}

// install builds the command's engine, wires the live progress meter, and
// makes it the sweep default so every path in this process shares one
// cache.
func (o *engineOpts) install() *progressMeter {
	m := &progressMeter{reg: obs.NewRegistry()}
	cfg := runner.Config{
		Workers:    *o.jobs,
		SimWorkers: *o.simJ,
		OnProgress: m.update,
		Obs:        m.reg,
	}
	if !*o.noCache {
		cfg.Disk = runner.Open(*o.dir)
	}
	eng := runner.New(cfg)
	m.eng = eng
	sweep.DefaultEngine = eng
	return m
}

// progressMeter renders a live point counter on stderr while a sweep
// batch executes.
type progressMeter struct {
	eng     *runner.Engine
	reg     *obs.Registry // the engine's metrics, snapshotted into figure manifests
	printed bool
	muted   bool
}

// update is the engine's progress callback (the engine serializes calls).
func (m *progressMeter) update(p runner.Progress) {
	if m.muted || p.Total == 0 {
		return
	}
	st := m.eng.Stats()
	fmt.Fprintf(os.Stderr, "\r%4d/%d points (ran %d, cache hits %d)",
		p.Done, p.Total, st.Runs, st.MemHits+st.DiskHits)
	m.printed = true
}

// finish terminates the meter line and silences later batches (the
// shaping pass re-reads every point from the memo, which would otherwise
// redraw the meter between output tables).
func (m *progressMeter) finish() {
	if m.printed {
		fmt.Fprintln(os.Stderr)
		m.printed = false
	}
	m.muted = true
}

func cmdList(context.Context, []string) error {
	fmt.Println("systems:")
	for _, s := range comb.Systems() {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println("\nfigures:")
	for _, f := range comb.Figures() {
		fmt.Printf("  %-3s %s\n      expect: %s\n", f.ID, f.Title, f.Expect)
	}
	return nil
}

// methodCapabilities renders the capability matrix cells for one
// registered method: an "x" per optional interface it implements.
func methodCapabilities(m method.Method) []string {
	mark := func(ok bool) string {
		if ok {
			return "x"
		}
		return "-"
	}
	_, calib := m.(method.Calibratable)
	_, check := m.(method.ResultChecker)
	_, relax := m.(method.Relaxer)
	_, fuzz := m.(method.Fuzzer)
	_, flags := m.(method.FlagBinder)
	_, nodes := m.(method.NodeScaler)
	return []string{mark(calib), mark(check), mark(relax), mark(fuzz), mark(flags), mark(nodes)}
}

// methodCapabilityHeaders names the capability matrix columns, in the
// order methodCapabilities fills them.
var methodCapabilityHeaders = []string{"calib", "check", "relax", "fuzz", "flags", "nodes"}

// cmdMethods lists every registered benchmark method as a capability
// matrix — which optional registry interfaces (calibration, result
// checking, invariant relaxation, fuzzing, CLI flags, node scaling)
// each method plugs into — plus its description and phase taxonomy.
func cmdMethods(context.Context, []string) error {
	fmt.Printf("%-10s %s  description\n", "method", strings.Join(methodCapabilityHeaders, "  "))
	for _, name := range comb.Methods() {
		m, err := method.Lookup(name)
		if err != nil {
			return err
		}
		cells := methodCapabilities(m)
		for i, c := range cells {
			cells[i] = fmt.Sprintf("%-*s", len(methodCapabilityHeaders[i]), c)
		}
		fmt.Printf("%-10s %s  %s\n", name, strings.Join(cells, "  "), m.Describe())
		fmt.Printf("%-10s phases: %s\n", "", strings.Join(m.PhaseTaxonomy(), ", "))
	}
	return nil
}

// printStats renders the hardware counters.
func printStats(st *comb.RunStats) {
	fmt.Printf("--- hardware counters (whole run incl. setup/drain) ---\n")
	fmt.Printf("wire            %d packets, %d bytes\n", st.Packets, st.WireBytes)
	for _, n := range st.CPUs {
		fmt.Printf("node%d CPU       user %v, kernel %v, interrupt %v (%d core(s))\n",
			n.Node, n.User.Round(time.Microsecond), n.Kernel.Round(time.Microsecond),
			n.Interrupt.Round(time.Microsecond), n.Cores)
	}
}

// cmdRun is the unified single-measurement entry.  -method <name>
// picks the registered method and forwards every other flag to the
// method's own flag set; -spec <file.json> runs a schema-versioned
// RunSpec document instead — the same JSON the serve API accepts.
func cmdRun(ctx context.Context, args []string) error {
	var name, specPath string
	rest := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-method" || a == "--method":
			if i+1 >= len(args) {
				return fmt.Errorf("run: %s needs a value (%s)", a, strings.Join(comb.Methods(), "|"))
			}
			i++
			name = args[i]
		case a == "-spec" || a == "--spec":
			if i+1 >= len(args) {
				return fmt.Errorf("run: %s needs a spec file", a)
			}
			i++
			specPath = args[i]
		case strings.HasPrefix(a, "-method="):
			name = strings.TrimPrefix(a, "-method=")
		case strings.HasPrefix(a, "--method="):
			name = strings.TrimPrefix(a, "--method=")
		case strings.HasPrefix(a, "-spec="):
			specPath = strings.TrimPrefix(a, "-spec=")
		case strings.HasPrefix(a, "--spec="):
			specPath = strings.TrimPrefix(a, "--spec=")
		default:
			rest = append(rest, a)
		}
	}
	if specPath != "" {
		if name != "" {
			return fmt.Errorf("run: -method and -spec are mutually exclusive")
		}
		return runSpecFile(ctx, specPath, rest)
	}
	if name == "" {
		return fmt.Errorf("run: need -method %s or -spec <file.json>", strings.Join(comb.Methods(), "|"))
	}
	return runMethod(ctx, name, rest)
}

// runSpecFile executes a versioned RunSpec JSON document — the same
// body `comb submit` posts — locally through comb.Run.
func runSpecFile(ctx context.Context, path string, args []string) error {
	fs := flag.NewFlagSet("run -spec", flag.ExitOnError)
	obsDir := fs.String("obs-dir", obs.DefaultRunDir, "directory for trace/metrics/manifest artifacts ('' disables)")
	strat := fs.String("strategy", "", "override the document's strategy stamp ("+strategyFlagHelp+")")
	simJ := fs.Int("sim-j", 0, "parallel DES partitions (execution knob, never part of the document; results are identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := readSpecFile(path)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	var sp comb.RunSpec
	if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("run: %s: %w", path, err)
	}
	if *strat != "" {
		st, err := parseStrategy(*strat)
		if err != nil {
			return err
		}
		sp.Strategy = st
	}
	noteSingleRunStrategy(sp.Strategy)
	if *simJ != 0 {
		sp.SimWorkers = *simJ
	}
	if sp.ObsCap == 0 {
		sp.ObsCap = obsCapFor(*obsDir)
	}
	out, err := comb.Run(ctx, sp)
	if err != nil {
		return err
	}
	if err := writeObs(*obsDir, out); err != nil {
		return err
	}
	printOutcome(out, false)
	return nil
}

// runMethod drives any registered method through the facade: the
// method's own flags (declared via its FlagBinder) plus the shared run
// flags, the unified Run pipeline, and the observability artifacts.
func runMethod(ctx context.Context, name string, args []string) error {
	m, err := method.Lookup(name)
	if err != nil {
		return fmt.Errorf("run: unknown method %q (have %s)", name, strings.Join(comb.Methods(), ", "))
	}
	fb, ok := m.(method.FlagBinder)
	if !ok {
		return fmt.Errorf("run: method %q declares no command-line flags; drive it through the Go API (comb.Run)", name)
	}
	fs := flag.NewFlagSet("run -method "+name, flag.ExitOnError)
	system := fs.String("system", "gm", "system to benchmark (gm|portals|ideal)")
	cpus := fs.Int("cpus", 1, "processors per node (SMP extension, paper s7)")
	nodes := fs.Int("nodes", 0, "cluster size: concurrent worker/support pairs sharing the switch (0 = the paper's 2 nodes)")
	simJ := fs.Int("sim-j", 0, "parallel DES partitions (needs -nodes > 2; results are identical)")
	showStats := fs.Bool("stats", false, "print hardware counters (packets, CPU breakdown)")
	traceN := fs.Int("trace", 0, "print the last N packet deliveries")
	seed := fs.Uint64("seed", 0, "wire/fault RNG seed (0 = platform default)")
	faults := fs.String("faults", "", "fault injection spec, e.g. 'drop=0.01,delay=0.2:50us,jitter=0.1:200us'")
	strat := fs.String("strategy", "", "measurement-protocol stamp recorded in the spec key and manifest ("+strategyFlagHelp+")")
	obsDir := fs.String("obs-dir", obs.DefaultRunDir, "directory for trace/metrics/manifest artifacts ('' disables)")
	params := fb.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fspec, err := parseFaults(*faults)
	if err != nil {
		return err
	}
	st, err := parseStrategy(*strat)
	if err != nil {
		return err
	}
	noteSingleRunStrategy(st)
	warnMaskedFaults(*system, fspec)
	out, err := comb.Run(ctx, comb.RunSpec{
		Method:     comb.Method(name),
		System:     *system,
		CPUs:       *cpus,
		Nodes:      *nodes,
		SimWorkers: *simJ,
		TraceCap:   *traceN,
		ObsCap:     obsCapFor(*obsDir),
		Seed:       *seed,
		Faults:     fspec,
		Strategy:   st,
		Params:     params(),
	})
	if err != nil {
		return err
	}
	if err := writeObs(*obsDir, out); err != nil {
		return err
	}
	printOutcome(out, *showStats)
	return nil
}

// printOutcome renders a finished single run: the paper's multi-line
// block for polling and PWW, the one-line String() for every other
// method, then the optional hardware counters and packet trace.
func printOutcome(out *comb.RunResult, showStats bool) {
	switch {
	case out.Polling != nil:
		res := out.Polling
		fmt.Printf("system          %s\n", out.Manifest.System)
		fmt.Printf("message size    %d B\n", res.MsgSize)
		fmt.Printf("poll interval   %d iterations\n", res.PollInterval)
		fmt.Printf("work total      %d iterations\n", res.WorkTotal)
		fmt.Printf("queue depth     %d\n", res.QueueDepth)
		fmt.Printf("dry-run time    %v\n", res.DryTime)
		fmt.Printf("messaging time  %v\n", res.Elapsed)
		fmt.Printf("messages        %d (%d bytes)\n", res.MsgsReceived, res.BytesReceived)
		fmt.Printf("bandwidth       %.2f MB/s\n", res.BandwidthMBs)
		fmt.Printf("availability    %.3f\n", res.Availability)
		if res.SystemAvailability > 0 {
			fmt.Printf("system avail    %.3f (node-wide, SMP-safe)\n", res.SystemAvailability)
		}
	case out.PWW != nil:
		res := out.PWW
		fmt.Printf("system          %s\n", out.Manifest.System)
		fmt.Printf("message size    %d B\n", res.MsgSize)
		fmt.Printf("work interval   %d iterations\n", res.WorkInterval)
		fmt.Printf("reps x batch    %d x %d (test-in-work: %v)\n", res.Reps, res.BatchSize, res.TestInWork)
		fmt.Printf("work only       %v per phase\n", res.AvgWorkOnly)
		fmt.Printf("work with MH    %v per phase (overhead %.1f%%)\n", res.AvgWorkMH, res.WorkOverhead*100)
		fmt.Printf("post (recv)     %v per message\n", res.AvgPostRecv)
		fmt.Printf("post (send)     %v per message\n", res.AvgPostSend)
		fmt.Printf("wait            %v per message\n", res.AvgWait)
		fmt.Printf("bandwidth       %.2f MB/s\n", res.BandwidthMBs)
		fmt.Printf("availability    %.3f\n", res.Availability)
		if res.SystemAvailability > 0 {
			fmt.Printf("system avail    %.3f (node-wide, SMP-safe)\n", res.SystemAvailability)
		}
	default:
		fmt.Println(out.Value.String())
	}
	if showStats {
		printStats(out.Stats)
	}
	if out.Trace != nil {
		// Oldest delivery first, times in the simulator's own format.
		count := ""
		if n := out.Trace.Len(); n > 0 {
			count = fmt.Sprintf("%s=%d", obs.CatPacket, n)
		}
		fmt.Printf("--- last %d packet deliveries (%s) ---\n", out.Trace.Len(), count)
		if d := out.Trace.Dropped(); d > 0 {
			fmt.Printf("(%d earlier events dropped)\n", d)
		}
		for _, e := range out.Trace.Items() {
			fmt.Printf("%12v node%d %-10s %s\n", sim.Time(e.At), e.Node, e.Cat, e.Detail)
		}
	}
}

// obsCapFor maps an -obs-dir value to a RunSpec.ObsCap: default span
// capacity when artifacts are wanted, off when the dir is empty.
func obsCapFor(dir string) int {
	if dir == "" {
		return 0
	}
	return -1
}

// writeObs persists a finished run's observability artifacts into dir:
// the span capture, the metrics in both formats, and the provenance
// manifest.
func writeObs(dir string, out *comb.RunResult) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if out.Obs != nil {
		if err := out.Obs.Save(filepath.Join(dir, obs.TraceFile)); err != nil {
			return err
		}
	}
	var prom strings.Builder
	if err := out.Metrics.WritePrometheus(&prom); err != nil {
		return err
	}
	if err := obs.WriteFileAtomic(filepath.Join(dir, obs.MetricsPromFile), []byte(prom.String()), 0o644); err != nil {
		return err
	}
	snap, err := json.MarshalIndent(out.Metrics.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	if err := obs.WriteFileAtomic(filepath.Join(dir, obs.MetricsJSONFile), append(snap, '\n'), 0o644); err != nil {
		return err
	}
	if err := out.Manifest.Save(filepath.Join(dir, obs.ManifestFile)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote run artifacts to %s/ (%s, %s, %s, %s)\n",
		dir, obs.TraceFile, obs.MetricsPromFile, obs.MetricsJSONFile, obs.ManifestFile)
	return nil
}

// cmdTrace exports a recorded span capture.
func cmdTrace(_ context.Context, args []string) error {
	if len(args) < 1 || args[0] != "export" {
		return fmt.Errorf("trace: need the 'export' subcommand, e.g. `comb trace export -format=chrome`")
	}
	fs := flag.NewFlagSet("trace export", flag.ExitOnError)
	format := fs.String("format", "chrome", "output format (chrome|text)")
	runDir := fs.String("run", obs.DefaultRunDir, "run directory holding "+obs.TraceFile)
	outPath := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	cp, err := obs.LoadCapture(filepath.Join(*runDir, obs.TraceFile))
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "chrome":
		return obs.WriteChromeTrace(w, cp)
	case "text":
		return writeTraceText(w, cp)
	default:
		return fmt.Errorf("trace export: unknown format %q (chrome|text)", *format)
	}
}

// writeTraceText renders a capture as aligned log lines: spans first
// (start, duration, node, category, name, args), then instants.
func writeTraceText(w io.Writer, c *obs.Capture) error {
	if c.DroppedSpans > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier spans dropped)\n", c.DroppedSpans); err != nil {
			return err
		}
	}
	for _, s := range c.Spans {
		if _, err := fmt.Fprintf(w, "%14v %14v node%d %-7s %s", s.Start, s.Dur, s.Node, s.Cat, s.Name); err != nil {
			return err
		}
		for _, kv := range s.Args {
			if _, err := fmt.Fprintf(w, " %s=%s", kv.K, kv.V); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, in := range c.Instants {
		if _, err := fmt.Fprintf(w, "%14v %14s node%d %-7s %s\n", in.At, "-", in.Node, in.Cat, in.Detail); err != nil {
			return err
		}
	}
	return nil
}

// cmdMetrics prints a saved metrics file from a run directory, or with
// -addr scrapes a running `comb serve` instance's /metrics endpoint.
func cmdMetrics(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	runDir := fs.String("run", obs.DefaultRunDir, "run directory holding the metrics files")
	format := fs.String("format", "prom", "output format (prom|json)")
	addr := fs.String("addr", "", "scrape a running server's /metrics instead (e.g. http://localhost:8080)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr != "" {
		return scrapeMetrics(ctx, *addr)
	}
	var name string
	switch *format {
	case "prom":
		name = obs.MetricsPromFile
	case "json":
		name = obs.MetricsJSONFile
	default:
		return fmt.Errorf("metrics: unknown format %q (prom|json)", *format)
	}
	b, err := os.ReadFile(filepath.Join(*runDir, name))
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

// cmdReplay re-executes a saved manifest and verifies the result hash;
// a divergence is an error (nonzero exit).
func cmdReplay(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	path := fs.String("manifest", filepath.Join(obs.DefaultRunDir, obs.ManifestFile), "manifest file to replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mf, err := obs.LoadManifest(*path)
	if err != nil {
		return err
	}
	res, err := comb.Replay(ctx, mf)
	if err != nil {
		return err
	}
	fmt.Printf("replay of %s/%s reproduced the recorded result\n", mf.Method, mf.System)
	fmt.Printf("result hash     %s\n", res.Manifest.ResultHash)
	return nil
}

func cmdFigure(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figure", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced sweep (one size, fewer points)")
	chart := fs.Bool("chart", true, "render an ASCII chart")
	table := fs.Bool("table", false, "print the aligned numeric table")
	csvDir := fs.String("csv", "", "directory to write figNN.csv files into")
	strat := fs.String("strategy", "", strategyFlagHelp)
	eo := addEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("figure: need a figure number (4-18) or 'all'")
	}
	st, err := parseStrategy(*strat)
	if err != nil {
		return err
	}
	var ids []string
	if fs.Arg(0) == "all" {
		for _, f := range comb.Figures() {
			ids = append(ids, f.ID)
		}
	} else {
		ids = fs.Args()
	}
	meter := eo.install()
	var sstats sweep.SweepStats
	opt := sweep.Options{Quick: *quick, Context: ctx, Strategy: st, Obs: meter.reg, Stats: &sstats}

	// Expand every requested figure up front and execute the union of
	// their point lists in one batch: `figure all -j N` parallelizes
	// across figures, and shared sweeps run exactly once.  A search
	// strategy skips the dense prewarm — spending runs on every grid
	// point is exactly what it avoids.
	var figs []sweep.Figure
	var pts []runner.Point
	for _, id := range ids {
		f, err := sweep.ByID(id)
		if err != nil {
			return err
		}
		figs = append(figs, f)
		if f.Points != nil && st.IsGrid() {
			pts = append(pts, f.Points(opt)...)
		}
	}
	err = sweep.DefaultEngine.RunAll(ctx, pts)
	meter.finish()
	if err != nil {
		return err
	}

	for _, f := range figs {
		fmt.Fprintf(os.Stderr, "building figure %s (%s)...\n", f.ID, f.Title)
		ev0, sk0 := sstats.Evaluated.Load(), sstats.Skipped.Load()
		tbl, err := f.Build(opt)
		if err != nil {
			return err
		}
		if *chart {
			fmt.Println(asciichart.Render(tbl, asciichart.Options{}))
		}
		if *table {
			fmt.Println(tbl.Text())
		}
		if *csvDir != "" {
			np := 0
			if f.Points != nil {
				np = len(f.Points(opt))
			}
			ev, sk := sstats.Evaluated.Load()-ev0, sstats.Skipped.Load()-sk0
			if err := writeCSV(*csvDir, f, tbl, *quick, np, meter.reg, st, ev, sk); err != nil {
				return err
			}
		}
		fmt.Printf("expected shape: %s\n\n", f.Expect)
	}
	return nil
}

// writeCSV writes a figure's data file plus its provenance manifest
// (figNN.manifest.json): the regenerating command, sweep size, search
// strategy and its evaluated/skipped counts, engine metrics snapshot,
// and a hash of the CSV bytes.
func writeCSV(dir string, f sweep.Figure, tbl *stats.Table, quick bool, points int, reg *obs.Registry, st *comb.SweepStrategy, evaluated, skipped int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	csv := tbl.CSV()
	path := filepath.Join(dir, fmt.Sprintf("fig%02s.csv", f.ID))
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)

	mf := obs.NewFigureManifest()
	mf.Figure = f.ID
	mf.Title = f.Title
	mf.Quick = quick
	mf.Command = fmt.Sprintf("comb figure %s -csv %s", f.ID, dir)
	if quick {
		mf.Command += " -quick"
	}
	if !st.IsGrid() {
		mf.Strategy = st.String()
		mf.Command += " -strategy " + st.String()
		mf.PointsEvaluated = evaluated
		mf.PointsSkipped = skipped
	}
	mf.Points = points
	if reg != nil {
		mf.Engine = reg.Snapshot()
	}
	mf.CSVSHA256 = obs.HashBytes([]byte(csv))
	mpath := filepath.Join(dir, fmt.Sprintf("fig%02s.manifest.json", f.ID))
	if err := mf.Save(mpath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", mpath)
	return nil
}

func cmdAssess(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("assess", flag.ExitOnError)
	eo := addEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("assess: need a system name (%v) or 'all'", comb.Systems())
	}
	systems := fs.Args()
	if systems[0] == "all" {
		systems = comb.Systems()
	}
	meter := eo.install()
	for _, sys := range systems {
		r, err := assess.RunContext(ctx, sweep.DefaultEngine, sys)
		if err != nil {
			meter.finish()
			return err
		}
		meter.finish()
		fmt.Println(r)
	}
	return nil
}

// cmdSweep runs a custom sweep (sweep.Custom): any method, systems,
// sizes, cluster size and metric.
func cmdSweep(ctx context.Context, args []string) error {
	var c sweep.Custom
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	fs.StringVar(&c.Method, "method", "polling", "benchmark method (polling|pww)")
	systems := fs.String("systems", "gm,portals", "comma-separated system list")
	sizes := fs.String("sizes", "100000", "comma-separated message sizes in bytes")
	fs.Int64Var(&c.From, "from", 1000, "axis start (loop iterations)")
	fs.Int64Var(&c.To, "to", 100_000_000, "axis end (loop iterations)")
	fs.IntVar(&c.Points, "points", 2, "points per decade")
	fs.StringVar(&c.Metric, "metric", "bandwidth",
		"y value: bandwidth|availability|wait|overhead|postrecv")
	fs.IntVar(&c.Nodes, "nodes", 0, "cluster size: concurrent worker/support pairs sharing the switch (0 = the paper's 2 nodes)")
	chart := fs.Bool("chart", true, "render an ASCII chart")
	table := fs.Bool("table", false, "print the aligned numeric table")
	csvOut := fs.Bool("csv", false, "print CSV to stdout")
	strat := fs.String("strategy", "", strategyFlagHelp)
	eo := addEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := parseStrategy(*strat)
	if err != nil {
		return err
	}
	for _, s := range strings.Split(*systems, ",") {
		c.Systems = append(c.Systems, strings.TrimSpace(s))
	}
	for _, s := range strings.Split(*sizes, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("sweep: bad size %q", s)
		}
		c.Sizes = append(c.Sizes, v)
	}

	meter := eo.install()
	tbl, err := c.Build(sweep.Options{Context: ctx, Strategy: st, Obs: meter.reg})
	meter.finish()
	if err != nil {
		return err
	}
	if *chart {
		fmt.Println(asciichart.Render(tbl, asciichart.Options{}))
	}
	if *table {
		fmt.Println(tbl.Text())
	}
	if *csvOut {
		fmt.Print(tbl.CSV())
	}
	return nil
}

// cmdCache manages the persistent on-disk result cache.
func cmdCache(_ context.Context, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("cache: need a subcommand (clear|stat)")
	}
	fs := flag.NewFlagSet("cache", flag.ExitOnError)
	dir := fs.String("dir", runner.DefaultCacheDir, "cache directory")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	c := runner.Open(*dir)
	switch args[0] {
	case "clear":
		n, err := c.Clear()
		if err != nil {
			return err
		}
		fmt.Printf("removed %d cache entr%s from %s\n", n, plural(n, "y", "ies"), c.Dir())
		return nil
	case "stat":
		fmt.Printf("%s: %d entr%s (schema v%d)\n", c.Dir(), c.Len(), plural(c.Len(), "y", "ies"), runner.SchemaVersion)
		return nil
	default:
		return fmt.Errorf("cache: unknown subcommand %q (clear|stat)", args[0])
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// cmdReport writes the auto-generated reproduction report.
func cmdReport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced figure sweeps")
	out := fs.String("o", "", "output file (default stdout)")
	rows := fs.Int("rows", 0, "max data rows per figure (0 = all)")
	eo := addEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	meter := eo.install()
	defer meter.finish()
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return report.Write(w, report.Options{Quick: *quick, MaxRowsPerFigure: *rows, Context: ctx})
}

// cmdBench times a representative hot-path workload — the Figure 4-class
// polling measurement, simulated -n times back to back with no caching —
// and, with -profile, wraps the runs in a CPU profile and writes a heap
// snapshot afterwards.  It is the profiling entry point for the
// simulation hot path: see docs/PERFORMANCE.md for the workflow, and
// scripts/benchdiff.sh for the regression gate built on the committed
// baseline.
func cmdBench(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	system := fs.String("system", "portals", "system to benchmark (gm|portals|tcp|emp|ideal)")
	size := fs.Int("size", 100_000, "message size in bytes")
	poll := fs.Int64("poll", 100_000, "poll interval (loop iterations)")
	work := fs.Int64("work", 25_000_000, "total work (loop iterations)")
	n := fs.Int("n", 3, "back-to-back repetitions")
	profile := fs.Bool("profile", false, "write CPU and heap profiles into -out")
	out := fs.String("out", "results/profiles", "profile output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("bench: -n %d: need at least one run", *n)
	}
	spec := comb.RunSpec{
		Method: comb.MethodPolling,
		System: *system,
		Polling: &comb.PollingConfig{
			Config:       comb.Config{MsgSize: *size},
			PollInterval: *poll,
			WorkTotal:    *work,
		},
	}
	var cpuFile *os.File
	if *profile {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		var err error
		cpuFile, err = os.Create(filepath.Join(*out, "cpu.pprof"))
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return err
		}
	}
	var total time.Duration
	for i := 0; i < *n; i++ {
		t0 := time.Now()
		res, err := comb.Run(ctx, spec)
		if err != nil {
			if *profile {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return err
		}
		wall := time.Since(t0)
		total += wall
		fmt.Printf("run %d/%d  %10v wall  (availability %.3f, %.2f MB/s)\n",
			i+1, *n, wall.Round(time.Millisecond), res.Polling.Availability, res.Polling.BandwidthMBs)
	}
	fmt.Printf("mean      %10v wall over %d run(s)\n", (total / time.Duration(*n)).Round(time.Millisecond), *n)
	if *profile {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return err
		}
		runtime.GC() // settle the heap so the snapshot reflects retained memory
		heapFile, err := os.Create(filepath.Join(*out, "heap.pprof"))
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(heapFile); err != nil {
			heapFile.Close()
			return err
		}
		if err := heapFile.Close(); err != nil {
			return err
		}
		fmt.Printf("profiles  %s/cpu.pprof, %s/heap.pprof (inspect with: go tool pprof <file>)\n", *out, *out)
	}
	return nil
}

// cmdSelfcheck verifies the reproduction's headline claims; with
// -fuzz N it sweeps N deterministic fault-injected runs through the
// invariant checker, and with -pack NAME (or "all") it runs the
// scenario oracle instead: every workload of the named pack across all
// registered methods × transports, judged by the metamorphic relation
// catalog (internal/scenario), each violation carrying a one-command
// replay line.
func cmdSelfcheck(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	fuzzN := fs.Int("fuzz", 0, "also run N deterministic fault-injected measurements across all transports")
	seed := fs.Uint64("seed", 1, "fuzz sweep seed (each failure logs its own replayable case seed)")
	pack := fs.String("pack", "", "run the named scenario pack ('all' for every pack) through the differential oracle")
	scenarios := fs.String("scenarios", scenario.DefaultDir, "scenario pack manifest directory")
	jobs := fs.Int("j", 0, "parallel simulations for -pack (0 = GOMAXPROCS)")
	simJ := fs.Int("sim-j", 0, "parallel DES partitions per simulation (results are identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pack != "" {
		pr, err := selfcheck.Packs(ctx, *scenarios, *pack, *jobs, *simJ)
		if err != nil {
			return err
		}
		fmt.Print(pr)
		if !pr.Passed() {
			os.Exit(1)
		}
		return nil
	}
	r, err := selfcheck.Run()
	if err != nil {
		return err
	}
	fmt.Print(r)
	failed := !r.Passed()
	if *fuzzN > 0 {
		fr := selfcheck.Fuzz(ctx, *fuzzN, *seed)
		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Print(fr)
		failed = failed || !fr.Passed()
	}
	if failed {
		os.Exit(1)
	}
	return nil
}

// parseStrategy turns a -strategy flag value into a validated sweep
// strategy: nil when empty or "grid", so the zero value stays the dense
// default and grid sweeps keep their classic spec keys.
func parseStrategy(s string) (*comb.SweepStrategy, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	st, err := comb.ParseStrategy(s)
	if err != nil {
		return nil, err
	}
	if st.IsGrid() {
		return nil, nil
	}
	return st, nil
}

// strategyFlagHelp is the shared -strategy usage string.
var strategyFlagHelp = fmt.Sprintf("sweep search strategy (%s; knobs like 'bisect:target=0.5', see docs/SWEEPS.md)",
	strings.Join(comb.Strategies(), "|"))

// noteSingleRunStrategy explains what a non-grid strategy means on a
// single measurement: a measurement-protocol stamp recorded in the spec
// key and manifest, not a search — searches need an axis to walk, which
// only the sweep-shaped subcommands have.
func noteSingleRunStrategy(st *comb.SweepStrategy) {
	if !st.IsGrid() {
		fmt.Fprintf(os.Stderr, "comb: strategy %s recorded as measurement protocol; searches drive sweeps (comb figure/sweep -strategy)\n", st)
	}
}

// parseFaults turns a -faults flag value into a RunSpec fault spec (nil
// when empty).
func parseFaults(s string) (*comb.FaultSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	fspec, err := comb.ParseFaults(s)
	if err != nil {
		return nil, err
	}
	return &fspec, nil
}

// warnMaskedFaults tells the user which requested faults the chosen
// transport cannot survive (the run silently masks them off).
func warnMaskedFaults(system string, fspec *comb.FaultSpec) {
	if fspec == nil {
		return
	}
	if _, masked := fspec.Masked(transport.ToleranceOf(system)); len(masked) > 0 {
		fmt.Fprintf(os.Stderr, "comb: transport %s cannot survive %s faults; ignoring them\n",
			system, strings.Join(masked, "/"))
	}
}
