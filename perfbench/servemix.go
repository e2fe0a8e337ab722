package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"comb/internal/core"
	"comb/internal/obs"
	"comb/internal/runpipe"
	"comb/internal/serve"
	"comb/internal/spec"
)

// serveScale sizes the serve-mix workload.
type serveScale struct {
	round   int // requests per timed pass
	clients int // closed-loop keep-alive clients, capped at nproc
	hot     int // hot-set size
	every   int // one request in every `every` is cold
}

var benchServe = serveScale{round: 100, clients: 2, hot: 16, every: 10}

// hotSet is the fixed set of small polling and PWW specs warmed during
// set-up; hot requests repeat them and are answered from the store.
func hotSet(n int) []spec.Spec {
	var out []spec.Spec
	for size := 8 << 10; len(out) < n; size += 4 << 10 {
		for _, sys := range []string{"gm", "portals"} {
			out = append(out,
				spec.Spec{Method: "polling", System: sys, Polling: &core.PollingConfig{
					Config: core.Config{MsgSize: size}, PollInterval: 20_000, WorkTotal: 2_000_000}},
				spec.Spec{Method: "pww", System: sys, PWW: &core.PWWConfig{
					Config: core.Config{MsgSize: size}, WorkInterval: 100_000, Reps: 4}})
		}
	}
	return out[:n]
}

// request is one client request: a spec and its wire body.
type request struct {
	spec spec.Spec
	hot  bool
	body []byte
}

// serveGen draws the serve-mix request sequence from the seed.
type serveGen struct {
	rng      *rand.Rand
	sc       serveScale
	hot      []spec.Spec
	hotBody  [][]byte
	seed     uint64
	n        int // requests drawn so far
	coldSlot int // the cold slot of the current block
}

func newServeGen(seed uint64, sc serveScale, hot []spec.Spec, hotBody [][]byte) *serveGen {
	return &serveGen{rng: rand.New(rand.NewPCG(seed, 0x7365727665)), sc: sc, hot: hot, hotBody: hotBody, seed: seed}
}

// next draws n requests.  In each block of sc.every requests one
// seed-chosen slot is cold: a fresh small polling or PWW spec whose seed
// axis makes its key unique within the run.  Every other slot repeats a
// seed-chosen hot spec.
func (g *serveGen) next(n int) ([]request, error) {
	out := make([]request, 0, n)
	for range n {
		slot := g.n % g.sc.every
		if slot == 0 {
			g.coldSlot = g.rng.IntN(g.sc.every)
		}
		g.n++
		if slot != g.coldSlot {
			i := g.rng.IntN(len(g.hot))
			out = append(out, request{spec: g.hot[i], hot: true, body: g.hotBody[i]})
			continue
		}
		s := g.cold()
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		out = append(out, request{spec: s, body: b})
	}
	return out, nil
}

// cold draws a fresh spec.  Its simulation (about ten times a hot
// spec's) dominates a round's wall time, which keeps the round steady
// from run to run: loopback HTTP alone swings with the host's load.
func (g *serveGen) cold() spec.Spec {
	sys := []string{"gm", "portals"}[g.rng.IntN(2)]
	size := 1024 * (8 + g.rng.IntN(25))
	seed := g.seed<<24 | uint64(g.n)
	if g.rng.IntN(2) == 0 {
		return spec.Spec{Method: "polling", System: sys, Seed: seed, Polling: &core.PollingConfig{
			Config: core.Config{MsgSize: size}, PollInterval: 20_000 + 1_000*int64(g.rng.IntN(21)), WorkTotal: 16_000_000}}
	}
	return spec.Spec{Method: "pww", System: sys, Seed: seed, PWW: &core.PWWConfig{
		Config: core.Config{MsgSize: size}, WorkInterval: 100_000 + 10_000*int64(g.rng.IntN(11)), Reps: 16}}
}

// jobView is the part of a serve job view the clients read.
type jobView struct {
	ID         string      `json:"id"`
	Key        string      `json:"key"`
	State      serve.State `json:"state"`
	Source     string      `json:"source"`
	ResultHash string      `json:"resultHash"`
}

// coldRun is a cold request's outcome, checked later against a direct run.
type coldRun struct {
	spec   spec.Spec
	hash   string
	traced bool
}

// serveMix drives an in-process `comb serve` (its flag defaults, a
// store in a temporary directory, no jobs directory) from closed-loop
// keep-alive HTTP clients.  Its timed operation is one request: submit,
// then long-poll until the job is terminal.
type serveMix struct {
	o       options
	sc      serveScale
	hot     []spec.Spec
	hotBody [][]byte
	hotHash map[string]string // key -> hash the warm-up run reported

	dir   string
	store *serve.Store
	srv   *serve.Server
	hs    *httptest.Server
	hcs   []*http.Client
	gen   *serveGen
	colds []coldRun

	tr    atomic.Pointer[tracer] // set while the traced pass runs
	runMu sync.Mutex
	runs  []float64 // Config.Run durations of the traced pass, seconds
	lt    tally
	sl    map[string]float64 // serve metrics of the traced pass
}

func newServeMix(o options, sc serveScale) *serveMix {
	w := &serveMix{o: o, sc: sc, hot: hotSet(sc.hot)}
	for _, s := range w.hot {
		b, err := json.Marshal(s)
		if err != nil {
			panic(err) // the hot set is a fixed, valid literal
		}
		w.hotBody = append(w.hotBody, b)
	}
	return w
}

func (w *serveMix) plan() plan { return plan{setupReps: 9, minPasses: 2, seedApplies: true} }

// setup starts a fresh server over an empty store and warms the hot set
// through the HTTP API.
func (w *serveMix) setup(ctx context.Context) error {
	w.close()
	dir, err := os.MkdirTemp(w.o.Work, "serve-store-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.store = serve.OpenStore(dir)
	cfg := serve.Config{Store: w.store, QueueCap: 64, BreakerThreshold: 5, BreakerCooldown: 30 * time.Second, Burst: 10}
	if w.o.Trace {
		cfg.Run = w.timedRun
	}
	w.srv = serve.New(cfg)
	w.hs = httptest.NewServer(w.srv.Handler())
	w.hcs = nil
	for range min(w.sc.clients, w.o.Procs) {
		w.hcs = append(w.hcs, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}})
	}
	w.gen = newServeGen(w.o.Seed, w.sc, w.hot, w.hotBody)
	w.colds = nil
	w.hotHash = map[string]string{}
	for i, body := range w.hotBody {
		v, _, _, err := w.request(ctx, w.hcs[0], body, nil)
		if err != nil {
			return fmt.Errorf("warming %s: %w", w.hot[i].Key(), err)
		}
		if v.State != serve.StateDone {
			return fmt.Errorf("warming %s: job ended %s", w.hot[i].Key(), v.State)
		}
		w.hotHash[v.Key] = v.ResultHash
	}
	return nil
}

// request submits one spec and long-polls its job until terminal.
func (w *serveMix) request(ctx context.Context, hc *http.Client, body []byte, tr *tracer) (v jobView, submit, wait time.Duration, err error) {
	id := tr.start(tr.root(), "serve.request")
	defer tr.stop(id)
	t0 := time.Now()
	sid := tr.start(id, "serve.submit")
	err = w.call(ctx, hc, http.MethodPost, w.hs.URL+"/v1/jobs", body, &v)
	tr.stop(sid)
	submit = time.Since(t0)
	if err != nil {
		return v, submit, 0, err
	}
	t1 := time.Now()
	wid := tr.start(id, "serve.wait")
	for err == nil && !v.State.Terminal() {
		err = w.call(ctx, hc, http.MethodGet, w.hs.URL+"/v1/jobs/"+v.ID+"?wait=60s", nil, &v)
	}
	tr.stop(wid)
	return v, submit, time.Since(t1), err
}

func (w *serveMix) call(ctx context.Context, hc *http.Client, method, url string, body []byte, v *jobView) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// timedRun is the traced server's Config.Run: runpipe.Run, timed while
// the traced pass is in progress.
func (w *serveMix) timedRun(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
	tr := w.tr.Load()
	id := tr.start(tr.root(), "serve.run")
	t0 := time.Now()
	out, err := runpipe.Run(ctx, s)
	if tr != nil {
		tr.stop(id)
		w.runMu.Lock()
		w.runs = append(w.runs, time.Since(t0).Seconds())
		w.runMu.Unlock()
	}
	return out, err
}

type outcome struct {
	v                 jobView
	lat, submit, wait time.Duration
	err               error
}

// pass sends one round of requests from every client, closed-loop: a
// client sends its next request only after the previous one finished.
func (w *serveMix) pass(ctx context.Context, tr *tracer, p *passStats) error {
	reqs, err := w.gen.next(w.sc.round)
	if err != nil {
		return err
	}
	var before map[string]int64
	if tr != nil {
		w.tr.Store(tr)
		defer w.tr.Store(nil)
		before = sourceCounts(w.srv.Registry())
	}
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for c, hc := range w.hcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += len(w.hcs) {
				t0 := time.Now()
				o := &outs[i]
				o.v, o.submit, o.wait, o.err = w.request(ctx, hc, reqs[i].body, tr)
				o.lat = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	for i, r := range reqs {
		o := outs[i]
		if o.err != nil {
			p.check(false, "request %s: %v", r.spec.Key(), o.err)
			continue
		}
		lat := o.lat.Seconds()
		p.ops = append(p.ops, lat)
		if r.hot {
			p.hot = append(p.hot, lat)
			p.check(o.v.State == serve.StateDone && o.v.Source == serve.SourceCache && o.v.ResultHash == w.hotHash[o.v.Key],
				"hot request %s: state %s, source %q, hash %s", o.v.Key, o.v.State, o.v.Source, o.v.ResultHash)
			continue
		}
		p.cold = append(p.cold, lat)
		ok := o.v.State == serve.StateDone && o.v.Source == serve.SourceRun
		p.check(ok, "cold request %s: state %s, source %q", o.v.Key, o.v.State, o.v.Source)
		if ok {
			w.colds = append(w.colds, coldRun{spec: r.spec, hash: o.v.ResultHash, traced: tr != nil})
		}
	}
	if tr != nil {
		w.sl = w.serveLayers(reqs, outs, before)
	}
	return nil
}

// serveLayers derives the serve layer's metrics from the traced round.
func (w *serveMix) serveLayers(reqs []request, outs []outcome, before map[string]int64) map[string]float64 {
	var submits, hotWaits, coldWaits, coldLats []float64
	for i, o := range outs {
		submits = append(submits, o.submit.Seconds())
		if reqs[i].hot {
			hotWaits = append(hotWaits, o.wait.Seconds())
		} else {
			coldWaits = append(coldWaits, o.wait.Seconds())
			coldLats = append(coldLats, o.lat.Seconds())
		}
	}
	w.runMu.Lock()
	run := median(w.runs)
	w.runMu.Unlock()
	after := sourceCounts(w.srv.Registry())
	return map[string]float64{
		"serve.submit_ms":        median(submits) * 1e3,
		"serve.hot_wait_ms":      median(hotWaits) * 1e3,
		"serve.cold_wait_ms":     median(coldWaits) * 1e3,
		"serve.run_ms":           run * 1e3,
		"serve.cold_overhead_ms": (median(coldLats) - run) * 1e3,
		"serve.cache_jobs":       float64(after[serve.SourceCache] - before[serve.SourceCache]),
		"serve.run_jobs":         float64(after[serve.SourceRun] - before[serve.SourceRun]),
		"serve.shared_jobs":      float64(after[serve.SourceShared] - before[serve.SourceShared]),
	}
}

// sourceCounts reads the server's done-jobs-by-source counters.
func sourceCounts(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		for _, src := range []string{serve.SourceCache, serve.SourceRun, serve.SourceShared} {
			if c.Name == fmt.Sprintf("comb_serve_job_source_total{source=%q}", src) {
				out[src] = c.Value
			}
		}
	}
	return out
}

// finish checks every hash the service reported against a direct
// runpipe.Run of the same spec.  Traced, it also probes the traced
// round's cold specs for the layer counters (hot requests never reach
// the simulator) and times the store's reads of the hot keys.
func (w *serveMix) finish(ctx context.Context, p *passStats, layers map[string]float64) error {
	checks := slices.Clone(w.colds)
	for _, s := range w.hot {
		checks = append(checks, coldRun{spec: s, hash: w.hotHash[s.Key()]})
	}
	got := make([]string, len(checks))
	errs := make([]error, len(checks))
	parallel(w.o.Procs, len(checks), func(i int) {
		out, err := runpipe.Run(ctx, checks[i].spec)
		if err != nil {
			errs[i] = err
			return
		}
		got[i] = out.Manifest.ResultHash
	})
	for i, c := range checks {
		p.check(errs[i] == nil && got[i] == c.hash, "%s: service hash %s, direct run %s (%v)", c.spec.Key(), c.hash, got[i], errs[i])
	}
	if layers == nil {
		return nil
	}
	var traced []spec.Spec
	for _, c := range w.colds {
		if c.traced {
			traced = append(traced, c.spec)
		}
	}
	if err := w.lt.replay(ctx, w.o.Procs, traced); err != nil {
		return err
	}
	w.lt.metrics(layers)
	maps.Copy(layers, w.sl)
	var gets []float64
	for range 5 {
		for _, s := range w.hot {
			t0 := time.Now()
			_, ok := w.store.Get(s.Key())
			gets = append(gets, time.Since(t0).Seconds())
			p.check(ok, "store has no entry for hot key %s", s.Key())
		}
	}
	layers["serve.store_get_us"] = median(gets) * 1e6
	return nil
}

// close stops the clients' idle connections, the HTTP server and the
// service, then removes the store.
func (w *serveMix) close() {
	for _, hc := range w.hcs {
		hc.CloseIdleConnections()
	}
	if w.hs != nil {
		w.hs.Close()
		w.hs = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
