package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"comb/internal/method"
	"comb/internal/obs"
	"comb/internal/runpipe"
	"comb/internal/spec"
)

// Point is one schedulable measurement: a registered method plus its
// parameters on a system.  It is the unified spec type (internal/spec)
// — the same struct the comb facade takes and the serve API decodes —
// so a point scheduled here, a RunSpec run through the facade, and an
// HTTP job body are literally one type.  The zero CPUs means the
// platform's own processor count (uniprocessor on the reference
// platform, as in the paper).  The engine ignores the spec's
// TraceCap/ObsCap knobs: cached results carry no trace, so points that
// differ only there share a key and a result.
type Point = spec.Spec

// Result is the envelope around one point's typed method result.
type Result struct {
	// Method is the registered method name that produced Value.
	Method string
	// Value is the method's own result type (e.g. *core.PollingResult).
	Value method.Result
}

// As extracts a typed method result from an envelope.
func As[T method.Result](r *Result) (T, bool) {
	var zero T
	if r == nil {
		return zero, false
	}
	v, ok := r.Value.(T)
	return v, ok
}

// RunAs resolves one point on eng and extracts its typed method result,
// failing when the point's method produced a different result type.
func RunAs[T method.Result](ctx context.Context, eng *Engine, pt Point) (T, error) {
	var zero T
	res, err := eng.Run(ctx, pt)
	if err != nil {
		return zero, err
	}
	v, ok := As[T](res)
	if !ok {
		return zero, fmt.Errorf("runner: %s point returned a %T result, want %T", res.Method, res.Value, zero)
	}
	return v, nil
}

// resultJSON is the serialized shape of a Result envelope.
type resultJSON struct {
	Method string          `json:"method"`
	Value  json.RawMessage `json:"value"`
}

// MarshalJSON writes the {"method": ..., "value": ...} envelope.
func (r Result) MarshalJSON() ([]byte, error) {
	if r.Method == "" || r.Value == nil {
		return nil, fmt.Errorf("runner: cannot serialize empty result envelope")
	}
	v, err := json.Marshal(r.Value)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resultJSON{Method: r.Method, Value: v})
}

// UnmarshalJSON decodes the envelope, resolving the value's concrete
// type through the method registry.  Payloads without a method name —
// including every pre-schema-2 cache file — are rejected, so stale
// entries can never be silently mis-keyed into a typed result.
func (r *Result) UnmarshalJSON(b []byte) error {
	var raw resultJSON
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	if raw.Method == "" {
		return fmt.Errorf("runner: result envelope has no method name (pre-registry schema?)")
	}
	m, err := method.Lookup(raw.Method)
	if err != nil {
		return err
	}
	v, err := m.DecodeResult(raw.Value)
	if err != nil {
		return err
	}
	r.Method, r.Value = raw.Method, v
	return nil
}

// Source says where a finished point's result came from.
type Source string

const (
	FromMemory Source = "memory" // in-memory memo hit
	FromDisk   Source = "disk"   // on-disk cache hit
	FromShared Source = "shared" // joined an identical in-flight simulation
	FromRun    Source = "run"    // freshly simulated
)

// Progress is one progress-callback notification.  Done counts completed
// points of the current RunAll batch (it is 0 and Total is 0 for single
// Run calls outside a batch).
type Progress struct {
	Done, Total int
	Key         string
	Source      Source
}

// Stats are the engine's lifetime cache counters.
type Stats struct {
	MemHits    int64 // points answered by the in-memory memo
	DiskHits   int64 // points answered by the on-disk cache
	SharedHits int64 // points that joined an identical in-flight simulation
	Runs       int64 // points actually simulated
	CalibHits  int64 // simulations that reused a shared dry-run calibration
}

// Config parameterizes a new Engine.  The zero value is a serial,
// memory-memoized engine — exactly the pre-runner behaviour.
type Config struct {
	// Workers bounds concurrent simulations in RunAll.  Zero means
	// GOMAXPROCS; 1 forces the serial order.
	Workers int
	// Timeout bounds each point's wall-clock simulation time (not cache
	// lookups).  Zero means no per-point timeout.
	Timeout time.Duration
	// OnProgress, when non-nil, is invoked after every finished point.
	// Calls are serialized by the engine; the callback must not call back
	// into the engine.
	OnProgress func(Progress)
	// Disk, when non-nil, is the second cache tier.
	Disk *Cache
	// Obs, when non-nil, receives the engine's metrics:
	// comb_runner_points_total{source} and the comb_runner_workers /
	// comb_runner_inflight_peak gauges.
	Obs *obs.Registry
	// Spans, when non-nil, receives one CatRunner span per finished
	// point — wall-clock offsets from engine construction, on the
	// runner's own export track (node -1) — with the point key and the
	// result source as arguments.
	Spans *obs.Collector
	// SimWorkers, when > 1, opts every simulated point into the parallel
	// DES engine (spec.Spec.SimWorkers) unless the point sets its own
	// value.  Results and cache keys are identical either way — this is
	// an execution knob, like Workers, not a measurement axis.
	SimWorkers int
}

// Engine schedules points.  It is safe for concurrent use.
type Engine struct {
	workers    int
	timeout    time.Duration
	simWorkers int
	onProgress func(Progress)
	disk       *Cache

	obsReg   *obs.Registry
	spans    *obs.Collector
	start    time.Time
	inflight atomic.Int64

	mu      sync.Mutex
	memo    map[string]*Result
	flights map[string]*flight
	calib   map[calibKey]time.Duration
	stats   Stats

	progMu sync.Mutex
}

// flight is one in-progress simulation concurrent callers of the same
// key wait on (single-flight): the leader closes done once res/err are
// final.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// New builds an engine from cfg.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers:    w,
		timeout:    cfg.Timeout,
		simWorkers: cfg.SimWorkers,
		onProgress: cfg.OnProgress,
		disk:       cfg.Disk,
		obsReg:     cfg.Obs,
		spans:      cfg.Spans,
		start:      time.Now(),
		memo:       make(map[string]*Result),
		flights:    make(map[string]*flight),
		calib:      make(map[calibKey]time.Duration),
	}
	if e.obsReg != nil {
		e.obsReg.Gauge("comb_runner_workers", "Concurrency bound of the sweep engine's worker pool.").Set(int64(w))
	}
	return e
}

// observe bumps the per-point metrics and records the point's
// wall-clock span on the runner track.
func (e *Engine) observe(key string, src Source, t0 time.Duration) {
	if e.obsReg != nil {
		e.obsReg.Counter(fmt.Sprintf("comb_runner_points_total{source=%q}", src),
			"Finished sweep points, by result source.").Inc()
	}
	if e.spans != nil {
		e.spans.Span(obs.CatRunner, "point", -1, t0, time.Since(e.start),
			"key", key, "source", string(src))
	}
}

// Workers reports the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Disk returns the on-disk cache tier, or nil.
func (e *Engine) Disk() *Cache { return e.disk }

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// ClearMemo drops the in-memory tier (the disk tier is untouched).
func (e *Engine) ClearMemo() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.memo = make(map[string]*Result)
}

// Run resolves one point through the cache tiers, simulating it if
// needed.  Concurrent Runs for the same key collapse into one
// simulation: the first caller becomes the flight leader, the rest wait
// and share its result (Stats.SharedHits).
func (e *Engine) Run(ctx context.Context, pt Point) (*Result, error) {
	n, m, err := pt.Normalized()
	if err != nil {
		return nil, err
	}
	key := spec.KeyOf(n, m)
	res, src, err := e.resolve(ctx, n, key)
	if err != nil {
		return nil, err
	}
	if e.onProgress != nil {
		e.notify(Progress{Key: key, Source: src})
	}
	return res, nil
}

// resolve answers one normalized point through the cache tiers, joining
// an identical in-flight simulation when one exists.
func (e *Engine) resolve(ctx context.Context, n Point, key string) (*Result, Source, error) {
	t0 := time.Since(e.start)
	for {
		e.mu.Lock()
		if r, ok := e.memo[key]; ok {
			e.stats.MemHits++
			e.mu.Unlock()
			e.observe(key, FromMemory, t0)
			return r, FromMemory, nil
		}
		f, inFlight := e.flights[key]
		if !inFlight {
			f = &flight{done: make(chan struct{})}
			e.flights[key] = f
		}
		e.mu.Unlock()

		if inFlight {
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, FromShared, ctx.Err()
			}
			if f.err != nil {
				// A leader cancelled under its own context says nothing
				// about this point; a live follower takes over and retries.
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					if ctx.Err() == nil {
						continue
					}
					return nil, FromShared, ctx.Err()
				}
				return nil, FromShared, f.err
			}
			e.mu.Lock()
			e.stats.SharedHits++
			e.mu.Unlock()
			e.observe(key, FromShared, t0)
			return f.res, FromShared, nil
		}

		res, src, err := e.lead(ctx, n, key, t0)
		f.res, f.err = res, err
		e.mu.Lock()
		delete(e.flights, key)
		e.mu.Unlock()
		close(f.done)
		return res, src, err
	}
}

// lead answers a flight leader's point from the disk tier or a fresh
// simulation, publishing the result into the memo and disk caches.
func (e *Engine) lead(ctx context.Context, n Point, key string, t0 time.Duration) (*Result, Source, error) {
	if e.disk != nil {
		if r, ok := e.disk.Load(key); ok {
			e.mu.Lock()
			e.memo[key] = r
			e.stats.DiskHits++
			e.mu.Unlock()
			e.observe(key, FromDisk, t0)
			return r, FromDisk, nil
		}
	}

	r, err := e.execute(ctx, n)
	if err != nil {
		return nil, FromRun, err
	}
	e.mu.Lock()
	e.memo[key] = r
	e.stats.Runs++
	e.mu.Unlock()
	if e.disk != nil {
		// A failed write only costs future cache hits; the result stands.
		_ = e.disk.Store(key, r)
	}
	e.observe(key, FromRun, t0)
	return r, FromRun, nil
}

// execute simulates one normalized point under the per-point timeout.
// The simulation is deterministic, so a failed point would fail the same
// way again: its error goes straight to the caller.
func (e *Engine) execute(ctx context.Context, n Point) (*Result, error) {
	cur := e.inflight.Add(1)
	defer e.inflight.Add(-1)
	if e.obsReg != nil {
		e.obsReg.Gauge("comb_runner_inflight_peak", "Deepest simultaneous-simulation count observed.").SetMax(cur)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := e.simulate(ctx, n)
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return r, err
}

// calibKey identifies one dry-run measurement.  The dry run executes a
// fixed number of calibrated empty-loop iterations on an otherwise idle
// node, so its duration depends only on the platform (transport system),
// the node's processor count, and the iteration count — not on any other
// sweep parameter, nor on which method asked.  Every point sharing a key
// therefore shares the measurement: the first simulation records it,
// subsequent ones replace their dry run with an equivalent idle wait
// (core.Sleeper), producing byte-identical results with less simulated
// work.  Methods opt in via method.Calibratable.
type calibKey struct {
	system string
	cpus   int
	iters  int64
}

// calibFor returns the shared dry-run duration for the key, if any run
// has measured it yet.
func (e *Engine) calibFor(k calibKey) (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.calib[k]
	if ok {
		e.stats.CalibHits++
	}
	return d, ok
}

// recordCalib stores a freshly measured dry-run duration (first writer
// wins; every run of the same key measures the same value).
func (e *Engine) recordCalib(k calibKey, d time.Duration) {
	if d <= 0 {
		return
	}
	e.mu.Lock()
	if _, ok := e.calib[k]; !ok {
		e.calib[k] = d
	}
	e.mu.Unlock()
}

// simulate runs one normalized point through the shared method pipeline:
// platform build (seed and fault injection included, via runpipe),
// invariant checker, the method itself, and the end-of-run conservation
// and plausibility checks.
func (e *Engine) simulate(ctx context.Context, n Point) (*Result, error) {
	if e.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	m, err := method.Lookup(string(n.Method))
	if err != nil {
		return nil, err
	}
	params := n.Params
	var ck calibKey
	cal, canCal := m.(method.Calibratable)
	if canCal {
		iters, ok := cal.CalibIters(params)
		if !ok {
			canCal = false
		} else {
			ck = calibKey{system: n.System, cpus: n.CPUs, iters: iters}
			if d, hit := e.calibFor(ck); hit {
				params = cal.Calibrated(params, d)
			}
		}
	}
	if n.SimWorkers == 0 {
		n.SimWorkers = e.simWorkers
	}
	in, err := runpipe.NewPlatform(n)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	res, chk, err := method.Execute(ctx, m, in, method.Config{System: n.System, CPUs: n.CPUs, Params: params}, method.ExecOptions{})
	if err != nil {
		return nil, err
	}
	if verr := chk.Err(); verr != nil {
		return nil, verr
	}
	if canCal {
		e.recordCalib(ck, cal.CalibResult(res))
	}
	return &Result{Method: string(n.Method), Value: res}, nil
}

func (e *Engine) notify(prog Progress) {
	if e.onProgress == nil {
		return
	}
	e.progMu.Lock()
	e.onProgress(prog)
	e.progMu.Unlock()
}

// RunAll resolves every point, dispatching cache misses across the worker
// pool.  Duplicate keys are collapsed before scheduling.  The first error
// cancels the remaining points and is returned; results land in the cache
// tiers, where subsequent Run calls find them.
func (e *Engine) RunAll(ctx context.Context, pts []Point) error {
	type keyedPoint struct {
		pt  Point
		key string
	}
	seen := make(map[string]bool, len(pts))
	var todo []keyedPoint
	for _, pt := range pts {
		n, m, err := pt.Normalized()
		if err != nil {
			return err
		}
		if k := spec.KeyOf(n, m); !seen[k] {
			seen[k] = true
			todo = append(todo, keyedPoint{pt: n, key: k})
		}
	}
	total := len(todo)
	if total == 0 {
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg      sync.WaitGroup
		done    int
		doneMu  sync.Mutex
		firstMu sync.Mutex
		first   error
	)
	work := make(chan keyedPoint)
	workers := e.workers
	if workers > total {
		workers = total
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for kp := range work {
				_, src, err := e.resolve(ctx, kp.pt, kp.key)
				if err != nil {
					firstMu.Lock()
					if first == nil {
						first = err
					}
					firstMu.Unlock()
					cancel()
					return
				}
				doneMu.Lock()
				done++
				d := done
				doneMu.Unlock()
				e.notify(Progress{Done: d, Total: total, Key: kp.key, Source: src})
			}
		}()
	}
feed:
	for _, kp := range todo {
		select {
		case work <- kp:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	firstMu.Lock()
	defer firstMu.Unlock()
	if first != nil {
		return first
	}
	return ctx.Err()
}
