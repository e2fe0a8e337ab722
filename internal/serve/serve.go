package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"comb/internal/obs"
	"comb/internal/runner"
	"comb/internal/runpipe"
	"comb/internal/spec"
)

// Config tunes a Server.  The zero value is usable: runpipe.Run as the
// engine, GOMAXPROCS workers, a fresh metrics registry, no persistent
// store, and every protection middleware disabled.
type Config struct {
	// Run executes one normalized spec; nil means runpipe.Run.  The
	// server wraps it in breaker → retry → timeout before use.
	Run RunFunc
	// Store is the persistent result store; nil serves from memory only
	// (identical in-flight jobs still dedupe via singleflight).
	Store *Store
	// JobsDir, when set, receives one subdirectory per finished job
	// holding its provenance artifacts (job.json, manifest.json), each
	// written atomically.
	JobsDir string
	// Workers bounds concurrently executing jobs; 0 means GOMAXPROCS.
	Workers int
	// QueueCap bounds the backlog of accepted-but-unstarted jobs; a
	// full queue rejects submissions with ErrQueueFull (HTTP 503).
	// 0 means 64.
	QueueCap int
	// RetainJobs caps how many finished (terminal) jobs stay resident:
	// once a job completes, the oldest terminal jobs beyond the cap are
	// evicted from the in-memory index (their artifacts persist under
	// JobsDir when set), so a long-running server's memory is bounded.
	// 0 means 1024; negative disables eviction.
	RetainJobs int

	// Timeout bounds each run attempt; 0 disables.
	Timeout time.Duration
	// Retries re-runs a failed point up to this many extra times.
	Retries int
	// BreakerThreshold opens the circuit breaker after this many
	// consecutive failures; 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects work before
	// probing; 0 means 30s.
	BreakerCooldown time.Duration

	// Rate caps accepted /v1/ requests per second (token bucket of
	// Burst capacity); 0 disables rate limiting.
	Rate  float64
	Burst int
	// ClientConcurrency caps concurrent in-flight /v1/ requests per
	// client (X-Comb-Client header, else remote host); 0 disables.
	ClientConcurrency int

	// Reg receives the server's metrics; nil means a fresh registry.
	Reg *obs.Registry
	// Log receives one line per HTTP request and per job transition;
	// nil discards.
	Log *log.Logger
}

// ErrQueueFull rejects submissions when the job backlog is at capacity.
var ErrQueueFull = errors.New("serve: job queue full")

// flight is one in-progress execution of a cache key, shared by every
// job that submitted the identical spec while it ran.
type flight struct {
	done  chan struct{}
	res   *runner.Result
	mf    *obs.Manifest
	stats *runpipe.RunStats
	err   error
}

// Server runs benchmark specs submitted over HTTP: a bounded worker
// fleet drains a queue of jobs, identical in-flight specs collapse into
// one engine run (singleflight over the cache key), and the optional
// Store answers repeats without running at all.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	log     *log.Logger
	run     RunFunc
	store   *Store
	breaker *Breaker
	rate    *tokenBucket
	budget  *clientBudget

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *Job
	wg     sync.WaitGroup

	// mu guards the in-memory job index.  live and held count its jobs
	// by state, so no request has to walk the index: live are queued or
	// running, held are terminal (RetainJobs caps them).
	mu     sync.Mutex
	jobs   map[string]*Job
	order  []*Job // oldest-submitted first
	nextID int64
	live   int
	held   int

	fmu     sync.Mutex
	flights map[string]*flight

	mQueueFull *obs.Counter
	mInflight  *obs.Gauge
	mJobSec    *obs.Histogram
	mEvicted   *obs.Counter
}

// jobSecondsBuckets are the comb_serve_job_seconds bounds (wall-clock).
var jobSecondsBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 60}

// New builds a server and starts its worker fleet; Close stops it.
func New(cfg Config) *Server {
	s := newServer(cfg)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// newServer builds a server with no workers: New starts them, and a
// test can drive jobs from its own goroutine instead.
func newServer(cfg Config) *Server {
	if cfg.Run == nil {
		cfg.Run = runpipe.Run
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.RetainJobs == 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	reg := cfg.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lg := cfg.Log
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		log:     lg,
		store:   cfg.Store,
		queue:   make(chan *Job, cfg.QueueCap),
		jobs:    make(map[string]*Job),
		flights: make(map[string]*flight),
	}
	var mws []Middleware
	if cfg.BreakerThreshold > 0 {
		s.breaker = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, reg)
		mws = append(mws, s.breaker.Middleware())
	}
	mws = append(mws, WithRetry(cfg.Retries), WithTimeout(cfg.Timeout))
	s.run = Chain(mws...)(cfg.Run)
	if cfg.Rate > 0 {
		s.rate = newTokenBucket(cfg.Rate, cfg.Burst)
	}
	if cfg.ClientConcurrency > 0 {
		s.budget = newClientBudget(cfg.ClientConcurrency)
	}
	s.mQueueFull = reg.Counter("comb_serve_queue_full_total", "submissions rejected because the job queue was full")
	s.mInflight = reg.Gauge("comb_serve_inflight_jobs", "jobs currently queued or running")
	s.mJobSec = reg.Histogram("comb_serve_job_seconds", "job wall-clock duration from start to finish", jobSecondsBuckets)
	s.mEvicted = reg.Counter("comb_serve_jobs_evicted_total", "terminal jobs evicted from the in-memory index by the retention cap")
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close stops accepting work on the worker fleet and waits for running
// jobs to wind down (their contexts are cancelled).  Jobs still sitting
// in the queue are failed with context.Canceled so long-poll and SSE
// watchers wake with a terminal view instead of blocking until their
// own timeouts.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
	for {
		select {
		case j := <-s.queue:
			s.finishErr(j, context.Canceled)
		default:
			return
		}
	}
}

// Submit validates, normalizes and enqueues one spec, returning the
// accepted job.  The spec's TraceCap/ObsCap are cleared: the service
// returns results and hashes, not per-run trace buffers.
func (s *Server) Submit(sp spec.Spec) (*Job, error) {
	sp.TraceCap, sp.ObsCap = 0, 0
	n, m, err := sp.Normalized()
	if err != nil {
		return nil, err
	}
	key := spec.KeyOf(n, m)

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJob(id, key, n)
	// Enqueue before registering, all under one critical section: a
	// rejected job is never visible, so there is no rollback to race
	// against a concurrent Submit.  The send cannot block (buffered
	// channel, default arm), and workers never take s.mu while
	// receiving, so holding the lock across it is safe.
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.mQueueFull.Inc()
		return nil, ErrQueueFull
	}
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.live++
	s.mInflight.Set(int64(s.live))
	s.mu.Unlock()
	s.log.Printf("serve: job %s queued key=%s", id, key)
	return j, nil
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every job's view in submission order.
func (s *Server) Jobs() []View {
	s.mu.Lock()
	jobs := slices.Clone(s.order)
	s.mu.Unlock()
	views := make([]View, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	return views
}

// retire moves a job that has just published its terminal state from
// the live count to the held count, then enforces RetainJobs.
func (s *Server) retire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live--
	s.held++
	s.mInflight.Set(int64(s.live))
	s.evictTerminal()
}

// evictTerminal enforces RetainJobs for a caller holding s.mu: while
// more than that many jobs are held, the oldest-submitted terminal job
// is dropped from the in-memory index (queued and running jobs are
// always kept).  The walk stops once the count is back at the cap, so
// it passes only the live jobs ahead of the evicted ones, however many
// are held.  Evicted jobs' artifacts remain under JobsDir; their IDs
// answer 404 afterwards.
//
// A job is terminal here as soon as it has published that state, which
// can be just before its own retire runs.  Evicting it then takes held
// one below the resident terminal jobs, and that retire restores it.
func (s *Server) evictTerminal() {
	if s.cfg.RetainJobs < 0 {
		return
	}
	kept, i := 0, 0
	for ; s.held > s.cfg.RetainJobs && i < len(s.order); i++ {
		j := s.order[i]
		if !j.terminal() {
			s.order[kept] = j
			kept++
			continue
		}
		delete(s.jobs, j.id)
		s.held--
		s.mEvicted.Inc()
	}
	// order[:kept] holds the live jobs walked past: move them up against
	// the unvisited rest, and drop the evicted slots from the front.
	copy(s.order[i-kept:i], s.order[:kept])
	clear(s.order[:i-kept])
	s.order = s.order[i-kept:]
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob drives one job to a terminal state: store hit, shared flight,
// or a fresh engine run through the middleware chain.
func (s *Server) runJob(j *Job) {
	j.setRunning()
	start := time.Now()
	defer func() { s.mJobSec.Observe(time.Since(start).Seconds()) }()

	if s.store != nil {
		if e, ok := s.store.Get(j.key); ok {
			s.finishOK(j, SourceCache, e.Result, e.Manifest, e.Stats)
			return
		}
	}
	res, mf, stats, source, err := s.resolve(j)
	if err != nil {
		s.finishErr(j, err)
		return
	}
	s.finishOK(j, source, res, mf, stats)
}

// resolve collapses identical in-flight keys into one engine run.  The
// first job in becomes the leader and runs; every job arriving while
// the flight is open waits and shares the leader's outcome (source
// "shared"), making N identical concurrent submissions cost one run.
func (s *Server) resolve(j *Job) (*runner.Result, *obs.Manifest, *runpipe.RunStats, string, error) {
	s.fmu.Lock()
	if f, ok := s.flights[j.key]; ok {
		s.fmu.Unlock()
		select {
		case <-f.done:
		case <-s.ctx.Done():
			return nil, nil, nil, "", s.ctx.Err()
		}
		if f.err != nil {
			return nil, nil, nil, "", f.err
		}
		return f.res, f.mf, f.stats, SourceShared, nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[j.key] = f
	s.fmu.Unlock()

	out, err := s.run(s.ctx, j.spec)
	if err != nil {
		f.err = err
	} else {
		f.res = &runner.Result{Method: out.Manifest.Method, Value: out.Value}
		f.mf = out.Manifest
		f.stats = out.Stats
		if s.store != nil {
			if perr := s.store.Put(j.key, j.spec, out); perr != nil {
				s.log.Printf("serve: store %s: %v", j.key, perr)
			}
		}
	}
	s.fmu.Lock()
	delete(s.flights, j.key)
	s.fmu.Unlock()
	close(f.done)
	if err != nil {
		return nil, nil, nil, "", err
	}
	return f.res, f.mf, f.stats, SourceRun, nil
}

// finishOK and finishErr count the job and write its artifacts before
// its terminal state is published: a client that sees the job finish
// finds both.
func (s *Server) finishOK(j *Job, source string, res *runner.Result, mf *obs.Manifest, stats *runpipe.RunStats) {
	s.reg.Counter(fmt.Sprintf("comb_serve_jobs_total{state=%q}", "done"), "finished jobs by terminal state").Inc()
	s.reg.Counter(fmt.Sprintf("comb_serve_job_source_total{source=%q}", source), "done jobs by result source (run, shared, cache)").Inc()
	j.finishOK(source, res, mf, stats, func(v View) { s.writeArtifacts(v, mf) })
	s.log.Printf("serve: job %s done source=%s hash=%s", j.id, source, mf.ResultHash)
	s.retire()
}

func (s *Server) finishErr(j *Job, err error) {
	s.reg.Counter(fmt.Sprintf("comb_serve_jobs_total{state=%q}", "failed"), "finished jobs by terminal state").Inc()
	j.finishErr(err, func(v View) { s.writeArtifacts(v, nil) })
	s.log.Printf("serve: job %s failed: %v", j.id, err)
	s.retire()
}

// writeArtifacts records a finished job under JobsDir/<id>/ — its view
// and, when it has one, the run manifest.  Each file is written
// atomically, and each job owns its own subdirectory, so concurrent
// jobs never collide.
func (s *Server) writeArtifacts(v View, mf *obs.Manifest) {
	if s.cfg.JobsDir == "" {
		return
	}
	dir := filepath.Join(s.cfg.JobsDir, v.ID)
	if b, err := marshalIndent(v); err == nil {
		if werr := obs.WriteFileAtomic(filepath.Join(dir, "job.json"), b, 0o644); werr != nil {
			s.log.Printf("serve: job %s artifacts: %v", v.ID, werr)
		}
	}
	if mf != nil {
		if err := mf.Save(filepath.Join(dir, obs.ManifestFile)); err != nil {
			s.log.Printf("serve: job %s manifest: %v", v.ID, err)
		}
	}
}
