package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	_ "comb/internal/method/all"
	"comb/internal/obs"
	"comb/internal/runpipe"
	"comb/internal/spec"
)

// pollingSpecJSON is the e2e fixture: a tiny polling point on the ideal
// system, cheap enough to simulate in-process.
const pollingSpecJSON = `{
  "specVersion": 1,
  "method": "polling",
  "system": "ideal",
  "polling": {"PollInterval": 1000, "WorkTotal": 5000000}
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func postSpec(t *testing.T, base, body string) View {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, b)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func awaitJob(t *testing.T, base, id string) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var v View
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=2s")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
	}
	t.Fatalf("job %s never finished: %+v", id, v)
	return v
}

// TestServeEndToEnd drives the full service loop over real HTTP: submit
// a versioned spec, long-poll to completion, fetch the result, and
// verify the hash matches an independent local run of the same spec —
// the serve path and the library path are the same pipeline.
func TestServeEndToEnd(t *testing.T) {
	store := OpenStore(t.TempDir())
	jobsDir := t.TempDir()
	_, hs := newTestServer(t, Config{Workers: 2, Store: store, JobsDir: jobsDir})

	v := postSpec(t, hs.URL, pollingSpecJSON)
	if v.State.Terminal() {
		t.Fatalf("job must start queued/running, got %s", v.State)
	}
	if !strings.HasPrefix(v.Key, "polling/ideal/") {
		t.Fatalf("job key = %q", v.Key)
	}

	done := awaitJob(t, hs.URL, v.ID)
	if done.State != StateDone {
		t.Fatalf("job state = %s (error %q)", done.State, done.Error)
	}
	if done.Source != SourceRun {
		t.Errorf("first submission source = %q, want %q", done.Source, SourceRun)
	}

	// The service's hash must equal a direct in-process run of the same
	// document: one spec, one pipeline, one answer.
	var sp spec.Spec
	if err := json.Unmarshal([]byte(pollingSpecJSON), &sp); err != nil {
		t.Fatal(err)
	}
	out, err := runpipe.Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if done.ResultHash == "" || done.ResultHash != out.Manifest.ResultHash {
		t.Errorf("serve hash %q != local run hash %q", done.ResultHash, out.Manifest.ResultHash)
	}

	// Result endpoint carries the envelope and the same hash.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var rr ResultResponse
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rr.ResultHash != done.ResultHash || rr.Result == nil || rr.Result.Method != "polling" {
		t.Errorf("result response: %+v", rr)
	}

	// Manifest endpoint replays through the standard loader contract.
	resp, err = http.Get(hs.URL + "/v1/jobs/" + v.ID + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	var mf obs.Manifest
	err = json.NewDecoder(resp.Body).Decode(&mf)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mf.ResultHash != done.ResultHash || mf.Method != "polling" {
		t.Errorf("manifest: %+v", mf)
	}

	// A repeat submission answers from the persistent store, same hash.
	v2 := postSpec(t, hs.URL, pollingSpecJSON)
	done2 := awaitJob(t, hs.URL, v2.ID)
	if done2.Source != SourceCache {
		t.Errorf("repeat submission source = %q, want %q", done2.Source, SourceCache)
	}
	if done2.ResultHash != done.ResultHash {
		t.Errorf("repeat hash %q != first hash %q", done2.ResultHash, done.ResultHash)
	}

	// Per-job artifacts landed in each job's own directory.
	for _, id := range []string{v.ID, v2.ID} {
		for _, name := range []string{"job.json", obs.ManifestFile} {
			if _, err := os.Stat(filepath.Join(jobsDir, id, name)); err != nil {
				t.Errorf("missing artifact: %v", err)
			}
		}
	}

	// The ops surface: health, version, metrics in Prometheus text form.
	if body := getText(t, hs.URL+"/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("healthz: %q", body)
	}
	if body := getText(t, hs.URL+"/v1/version"); !strings.Contains(body, `"specVersion": 3`) ||
		!strings.Contains(body, "polling") {
		t.Errorf("version: %q", body)
	}
	metrics := getText(t, hs.URL+"/metrics")
	for _, want := range []string{
		"# TYPE comb_serve_requests_total counter",
		`comb_serve_job_source_total{source="run"} 1`,
		`comb_serve_job_source_total{source="cache"} 1`,
		`comb_serve_jobs_total{state="done"} 2`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fakeOutcome builds a minimal successful Outcome for RunFunc fakes.
type fakeResult struct{ S string }

func (f fakeResult) String() string { return f.S }

func fakeOutcome(hash string) *runpipe.Outcome {
	mf := obs.NewManifest()
	mf.Method = "polling"
	mf.System = "ideal"
	mf.ResultHash = hash
	return &runpipe.Outcome{
		Value:    fakeResult{S: "fake"},
		Stats:    &runpipe.RunStats{},
		Manifest: mf,
	}
}

// TestServeSingleflight: N concurrent submissions of the identical spec
// run the engine exactly once; everyone else shares the flight and all
// responses carry the same result hash.  Run with -race this is the
// acceptance test for the dedup path.
// logCheck is an io.Writer for a server's Log that runs check on every
// job's terminal line ("serve: job <id> done ..." or "... failed: ...")
// and then reports the id on ids, dropping it when ids is full.
type logCheck struct {
	check func(id string)
	ids   chan string
}

func (w logCheck) Write(p []byte) (int, error) {
	if f := strings.Fields(string(p)); len(f) > 3 && f[0] == "serve:" && f[1] == "job" &&
		(f[3] == "done" || f[3] == "failed:") {
		w.check(f[2])
		select {
		case w.ids <- f[2]:
		default:
		}
	}
	return len(p), nil
}

// TestServeArtifactsBeforeTerminalState pins the finish order: a job's
// artifacts exist before its terminal state is published.  The server
// logs a job's terminal line just after publishing it, so a log writer
// that looks for the files at that moment fails on every run if the
// state is published first.
func TestServeArtifactsBeforeTerminalState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		run   RunFunc
		files []string
	}{
		{"done", nil, []string{"job.json", obs.ManifestFile}},
		{"failed", func(context.Context, spec.Spec) (*runpipe.Outcome, error) {
			return nil, fmt.Errorf("engine down")
		}, []string{"job.json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobsDir := t.TempDir()
			w := logCheck{ids: make(chan string, 1), check: func(id string) {
				for _, name := range tc.files {
					if _, err := os.Stat(filepath.Join(jobsDir, id, name)); err != nil {
						t.Errorf("job %s was published before its %s was written", id, name)
					}
				}
			}}
			_, hs := newTestServer(t, Config{Run: tc.run, JobsDir: jobsDir, Log: log.New(w, "", 0)})
			v := postSpec(t, hs.URL, pollingSpecJSON)
			if id := <-w.ids; id != v.ID {
				t.Fatalf("terminal line for job %s, want %s", id, v.ID)
			}
		})
	}
}

func TestServeSingleflight(t *testing.T) {
	const n = 8
	var runs atomic.Int64
	gate := make(chan struct{})
	gatedRun := func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
		runs.Add(1)
		select {
		case <-gate: // held open until every job reached the flight
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return fakeOutcome("sha256:deadbeef"), nil
	}
	srv, hs := newTestServer(t, Config{Workers: n, Run: gatedRun})

	views := make([]View, n)
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(pollingSpecJSON))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				b, _ := io.ReadAll(resp.Body)
				errCh <- fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
				return
			}
			errCh <- json.NewDecoder(resp.Body).Decode(&views[i])
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	// Release the flight only after every job is executing (running and
	// either leading or parked on the shared flight), so no submission
	// can arrive late and start a second flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		running := 0
		for _, v := range srv.Jobs() {
			if v.State == StateRunning {
				running++
			}
		}
		if running == n && runs.Load() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never converged: %d running, %d runs", running, runs.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let the last workers reach the flight wait
	close(gate)

	var shared, ran int
	for i := 0; i < n; i++ {
		done := awaitJob(t, hs.URL, views[i].ID)
		if done.State != StateDone {
			t.Fatalf("job %s: %s (%s)", done.ID, done.State, done.Error)
		}
		if done.ResultHash != "sha256:deadbeef" {
			t.Errorf("job %s hash = %q", done.ID, done.ResultHash)
		}
		switch done.Source {
		case SourceRun:
			ran++
		case SourceShared:
			shared++
		default:
			t.Errorf("job %s source = %q", done.ID, done.Source)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("engine ran %d times, want 1", got)
	}
	if ran != 1 || shared != n-1 {
		t.Errorf("sources: run=%d shared=%d, want 1/%d", ran, shared, n-1)
	}

	// The metrics counter is the externally observable proof.
	metrics := getText(t, hs.URL+"/metrics")
	if !strings.Contains(metrics, `comb_serve_job_source_total{source="run"} 1`) ||
		!strings.Contains(metrics, fmt.Sprintf(`comb_serve_job_source_total{source="shared"} %d`, n-1)) {
		t.Errorf("metrics:\n%s", metrics)
	}
}

// TestServeSubmitErrors covers the API's refusal paths: wrong schema
// version, malformed specs, unknown jobs, full queues.
func TestServeSubmitErrors(t *testing.T) {
	blocked := make(chan struct{})
	t.Cleanup(func() { close(blocked) })
	stall := func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
		select {
		case <-blocked:
		case <-ctx.Done():
		}
		return nil, fmt.Errorf("serve_test: stalled run released")
	}
	_, hs := newTestServer(t, Config{Workers: 1, QueueCap: 1, Run: stall})

	post := func(body string) (int, string) {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := post(`{"specVersion":99,"method":"polling"}`); code != http.StatusBadRequest ||
		!strings.Contains(body, "spec_version_unsupported") {
		t.Errorf("foreign version: %d %s", code, body)
	}
	if code, body := post(`{"method":"polling"}`); code != http.StatusBadRequest ||
		!strings.Contains(body, "spec_version_unsupported") {
		t.Errorf("missing version: %d %s", code, body)
	}
	if code, body := post(`{"specVersion":1,"method":"polling","system":"ideal"}`); code != http.StatusBadRequest ||
		!strings.Contains(body, "invalid_spec") {
		t.Errorf("config-less spec: %d %s", code, body)
	}
	if code, body := post(`not json`); code != http.StatusBadRequest || !strings.Contains(body, "bad_spec") {
		t.Errorf("malformed body: %d %s", code, body)
	}
	valid := `{"specVersion":1,"method":"polling","system":"ideal","polling":{"PollInterval":999,"WorkTotal":5000000}}`
	if code, body := post(valid + ` trailing garbage`); code != http.StatusBadRequest || !strings.Contains(body, "bad_spec") {
		t.Errorf("trailing data after the document: %d %s", code, body)
	}
	if code, body := post(valid + valid); code != http.StatusBadRequest || !strings.Contains(body, "bad_spec") {
		t.Errorf("two documents: %d %s", code, body)
	}

	resp, err := http.Get(hs.URL + "/v1/jobs/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d", resp.StatusCode)
	}

	// Saturate: 1 worker stalled + 1 queue slot; distinct specs dodge the
	// singleflight so the third submission must 503.
	specFor := func(i int) string {
		return fmt.Sprintf(`{"specVersion":1,"method":"polling","system":"ideal","polling":{"PollInterval":%d,"WorkTotal":5000000}}`, 1000+i)
	}
	// Trailing whitespace after the document is accepted.
	if code, _ := post(specFor(0) + "\n\t "); code != http.StatusAccepted {
		t.Fatalf("first stalled submission: HTTP %d", code)
	}
	// Wait for the worker to pick it up so the queue slot is free.
	deadlineOK := false
	for i := 0; i < 100; i++ {
		if strings.Contains(getText(t, hs.URL+"/metrics"), "comb_serve_inflight_jobs 1") {
			deadlineOK = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = deadlineOK
	if code, _ := post(specFor(1)); code != http.StatusAccepted {
		t.Fatalf("queued submission: HTTP %d", code)
	}
	code, body := post(specFor(2))
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "queue_full") {
		t.Errorf("overflow submission: %d %s", code, body)
	}
	if !strings.Contains(getText(t, hs.URL+"/metrics"), "comb_serve_queue_full_total 1") {
		t.Error("queue_full metric not incremented")
	}
}

// TestServeEvents streams a job's lifecycle over SSE and requires the
// stream to end on the terminal state.
func TestServeEvents(t *testing.T) {
	release := make(chan struct{})
	gate := func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
		select {
		case <-release:
			return fakeOutcome("sha256:events"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, hs := newTestServer(t, Config{Workers: 1, Run: gate})

	v := postSpec(t, hs.URL, pollingSpecJSON)
	resp, err := http.Get(hs.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	close(release)

	var states []State
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev View
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		states = append(states, ev.State)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != StateDone {
		t.Fatalf("SSE states = %v, want trailing %s", states, StateDone)
	}
}

// TestServeRateLimit: the global token bucket rejects the burst+1'th
// /v1/ request with 429 but never gates /metrics.
func TestServeRateLimit(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, Rate: 0.001, Burst: 2})

	codes := make([]int, 3)
	for i := range codes {
		resp, err := http.Get(hs.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		codes[i] = resp.StatusCode
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK || codes[2] != http.StatusTooManyRequests {
		t.Fatalf("codes = %v", codes)
	}
	metrics := getText(t, hs.URL+"/metrics")
	if !strings.Contains(metrics, "comb_serve_rate_limited_total 1") {
		t.Errorf("metrics:\n%s", metrics)
	}
}

// TestServeClientBudget: one slow request per client at a time; a
// second concurrent request from the same client bounces with 429,
// while a different client identity passes.
func TestServeClientBudget(t *testing.T) {
	release := make(chan struct{})
	gate := func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
		select {
		case <-release:
			return fakeOutcome("sha256:budget"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, hs := newTestServer(t, Config{Workers: 1, Run: gate, ClientConcurrency: 1})
	defer close(release)

	v := postSpecAs(t, hs.URL, "alice", pollingSpecJSON)

	// alice parks a long-poll, occupying her single slot…
	parked := make(chan struct{})
	go func() {
		req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs/"+v.ID+"?wait=3s", nil)
		req.Header.Set("X-Comb-Client", "alice")
		close(parked)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-parked
	waitForBudgetHold := func() bool {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs", nil)
			req.Header.Set("X-Comb-Client", "alice")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusTooManyRequests {
				return true
			}
			time.Sleep(10 * time.Millisecond)
		}
		return false
	}
	if !waitForBudgetHold() {
		t.Error("alice's second concurrent request was never budget-rejected")
	}

	// …but bob is a different identity with his own budget.
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs", nil)
	req.Header.Set("X-Comb-Client", "bob")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("bob: HTTP %d", resp.StatusCode)
	}
}

// specVariant builds a distinct valid polling spec per i, dodging both
// the singleflight and the result store.
func specVariant(i int) string {
	return fmt.Sprintf(`{"specVersion":1,"method":"polling","system":"ideal","polling":{"PollInterval":%d,"WorkTotal":5000000}}`, 1000+i)
}

// TestServeQueueFullConcurrentSubmits hammers a tiny queue with
// concurrent distinct submissions and requires the job index to stay
// coherent: exactly the accepted jobs are listed and every view
// renders.  (A positional rollback in Submit used to be able to remove
// a concurrent submission's ID instead of the rejected one, leaving a
// dangling ID that panicked the listing.)
func TestServeQueueFullConcurrentSubmits(t *testing.T) {
	stall := func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	srv, hs := newTestServer(t, Config{Workers: 1, QueueCap: 2, Run: stall})

	const n = 24
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(specVariant(100+i)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			switch resp.StatusCode {
			case http.StatusAccepted:
				accepted.Add(1)
			case http.StatusServiceUnavailable:
			default:
				t.Errorf("submit %d: HTTP %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("list after churn: HTTP %d: %s", resp.StatusCode, b)
	}
	var list struct {
		Jobs []View `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if got, want := len(list.Jobs), int(accepted.Load()); got != want {
		t.Errorf("listing holds %d jobs, %d were accepted", got, want)
	}
	if got := len(srv.Jobs()); got != int(accepted.Load()) {
		t.Errorf("Jobs() holds %d, %d were accepted", got, accepted.Load())
	}
}

// TestServeRetention: finished jobs beyond RetainJobs are evicted from
// the in-memory index oldest-first — they 404 afterwards — while their
// artifacts survive on disk and live jobs are untouched.
func TestServeRetention(t *testing.T) {
	fast := func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
		return fakeOutcome("sha256:retain"), nil
	}
	jobsDir := t.TempDir()
	_, hs := newTestServer(t, Config{Workers: 1, RetainJobs: 2, Run: fast, JobsDir: jobsDir})

	ids := make([]string, 4)
	for i := range ids {
		v := postSpec(t, hs.URL, specVariant(200+i))
		if done := awaitJob(t, hs.URL, v.ID); done.State != StateDone {
			t.Fatalf("job %s: %s (%s)", v.ID, done.State, done.Error)
		}
		ids[i] = v.ID
	}

	// Eviction runs just after the terminal view is published; poll
	// briefly for the index to settle at the cap.
	deadline := time.Now().Add(5 * time.Second)
	var views []View
	for {
		var list struct {
			Jobs []View `json:"jobs"`
		}
		if err := json.Unmarshal([]byte(getText(t, hs.URL+"/v1/jobs")), &list); err != nil {
			t.Fatal(err)
		}
		views = list.Jobs
		if len(views) == 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(views) != 2 || views[0].ID != ids[2] || views[1].ID != ids[3] {
		t.Fatalf("retained views = %+v, want newest two of %v", views, ids)
	}

	for _, id := range ids[:2] {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s: HTTP %d, want 404", id, resp.StatusCode)
		}
		if _, err := os.Stat(filepath.Join(jobsDir, id, "job.json")); err != nil {
			t.Errorf("evicted job %s lost its artifacts: %v", id, err)
		}
	}
	if !strings.Contains(getText(t, hs.URL+"/metrics"), "comb_serve_jobs_evicted_total 2") {
		t.Error("eviction metric not incremented")
	}
}

// TestServeCloseFailsQueuedJobs: Close must drive still-queued jobs to
// a terminal failed state so long-poll watchers wake instead of hanging
// until their own timeouts.
func TestServeCloseFailsQueuedJobs(t *testing.T) {
	stall := func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	srv := New(Config{Workers: 1, QueueCap: 4, Run: stall})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	views := make([]View, 3)
	for i := range views {
		views[i] = postSpec(t, hs.URL, specVariant(300+i))
	}

	// Park a long-poll on the last (queued) job before shutting down.
	woke := make(chan View, 1)
	parked := make(chan struct{})
	go func() {
		close(parked)
		resp, err := http.Get(hs.URL + "/v1/jobs/" + views[2].ID + "?wait=30s")
		if err != nil {
			t.Error(err)
			woke <- View{}
			return
		}
		defer resp.Body.Close()
		var v View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Error(err)
		}
		woke <- v
	}()
	<-parked
	time.Sleep(20 * time.Millisecond) // let the poll reach the handler

	start := time.Now()
	srv.Close()

	select {
	case v := <-woke:
		if !v.State.Terminal() {
			t.Errorf("watcher woke with non-terminal state %s", v.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll watcher never woke after Close")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("watcher woke after %s; should be immediate on Close", took)
	}
	for _, v := range srv.Jobs() {
		if v.State != StateFailed {
			t.Errorf("job %s state after Close = %s, want %s", v.ID, v.State, StateFailed)
		}
		if !strings.Contains(v.Error, context.Canceled.Error()) {
			t.Errorf("job %s error = %q, want context.Canceled", v.ID, v.Error)
		}
	}
}

// TestRouteLabel pins the bounded metric-label vocabulary: known routes
// keep their shape with IDs collapsed, everything else is "other".
func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/healthz":                  "/healthz",
		"/metrics":                  "/metrics",
		"/v1/version":               "/v1/version",
		"/v1/jobs":                  "/v1/jobs",
		"/v1/jobs/j000001":          "/v1/jobs/{id}",
		"/v1/jobs/j000001/result":   "/v1/jobs/{id}/result",
		"/v1/jobs/j000001/manifest": "/v1/jobs/{id}/manifest",
		"/v1/jobs/j000001/events":   "/v1/jobs/{id}/events",
		"/v1/jobs/":                 "other",
		"/v1/jobs/j1/unknown":       "other",
		"/v1/jobs/j1/result/extra":  "other",
		"/v1/secrets":               "other",
		"/admin":                    "other",
		"/totally/random/404/path":  "other",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestServeWaitBounds: ?wait= is clamped server-side and negatives are
// rejected, so a client cannot pin a handler goroutine indefinitely.
func TestServeWaitBounds(t *testing.T) {
	if _, err := parseWait("-5s"); err == nil {
		t.Error("negative wait accepted")
	}
	if d, err := parseWait("1000h"); err != nil || d != maxWait {
		t.Errorf("parseWait(1000h) = %v, %v; want clamp to %v", d, err, maxWait)
	}
	if d, err := parseWait("2s"); err != nil || d != 2*time.Second {
		t.Errorf("parseWait(2s) = %v, %v", d, err)
	}

	fast := func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
		return fakeOutcome("sha256:wait"), nil
	}
	_, hs := newTestServer(t, Config{Workers: 1, Run: fast})
	v := postSpec(t, hs.URL, pollingSpecJSON)
	resp, err := http.Get(hs.URL + "/v1/jobs/" + v.ID + "?wait=-1s")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "bad_wait") {
		t.Errorf("negative wait: HTTP %d: %s", resp.StatusCode, b)
	}
}

func postSpecAs(t *testing.T, base, client, body string) View {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Comb-Client", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, b)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}
