package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"comb/internal/method"
	"comb/internal/spec"
	"comb/internal/transport"
)

// maxSpecBytes bounds a submitted spec body.
const maxSpecBytes = 1 << 20

// maxWait caps ?wait= long-polls server-side so a client cannot pin a
// handler goroutine (and its connection) indefinitely; longer polls
// just re-issue with ?since=.
const maxWait = 60 * time.Second

// parseWait validates a ?wait= value: negative durations are rejected,
// and anything beyond maxWait is clamped to it.
func parseWait(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %s", d)
	}
	if d > maxWait {
		d = maxWait
	}
	return d, nil
}

// apiError is the wire shape of every non-2xx response.
type apiError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := marshalIndent(v)
	if err != nil {
		fmt.Fprintf(w, `{"error":{"code":"encode","message":%q}}`, err.Error())
		return
	}
	w.Write(b)
}

func marshalIndent(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	var e apiError
	e.Error.Code = code
	e.Error.Message = err.Error()
	writeJSON(w, status, e)
}

// Handler returns the server's HTTP API:
//
//	GET  /healthz                  liveness
//	GET  /metrics                  Prometheus text exposition
//	GET  /v1/version               spec schema version + registries
//	POST /v1/jobs                  submit a versioned RunSpec (202)
//	GET  /v1/jobs                  list jobs
//	GET  /v1/jobs/{id}             one job; ?wait=dur&since=N long-polls
//	GET  /v1/jobs/{id}/result      terminal result envelope + hash
//	GET  /v1/jobs/{id}/manifest    the run's provenance manifest
//	GET  /v1/jobs/{id}/events      SSE stream of job state changes
//
// The handler chain is logging+metrics → rate limit → client budget →
// routes; the limiter and budget only gate /v1/ paths, so probes and
// scrapes always get through.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/manifest", s.handleManifest)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)

	var h http.Handler = mux
	h = s.budgetMiddleware(h)
	h = s.rateMiddleware(h)
	h = s.obsMiddleware(h)
	return h
}

// VersionInfo is GET /v1/version's body: what this server accepts.
type VersionInfo struct {
	SpecVersion int      `json:"specVersion"`
	Methods     []string `json:"methods"`
	Systems     []string `json:"systems"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, VersionInfo{
		SpecVersion: spec.Version,
		Methods:     method.Names(),
		Systems:     transport.Names(),
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// One document and nothing after it but whitespace, as `comb run
	// -spec` reads a file.
	var sp spec.Spec
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err == nil {
		err = json.Unmarshal(body, &sp)
	}
	if err != nil {
		var ve *spec.VersionError
		if errors.As(err, &ve) {
			writeErr(w, http.StatusBadRequest, "spec_version_unsupported", err)
			return
		}
		writeErr(w, http.StatusBadRequest, "bad_spec", err)
		return
	}
	j, err := s.Submit(sp)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			writeErr(w, http.StatusServiceUnavailable, "queue_full", err)
			return
		}
		writeErr(w, http.StatusBadRequest, "invalid_spec", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.View())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []View `json:"jobs"`
	}{Jobs: s.Jobs()})
}

// lookupJob resolves {id} or answers 404.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "job_not_found", fmt.Errorf("serve: no job %q", id))
	}
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	waitStr := q.Get("wait")
	if waitStr == "" {
		writeJSON(w, http.StatusOK, j.View())
		return
	}
	wait, err := parseWait(waitStr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_wait", fmt.Errorf("serve: wait: %w", err))
		return
	}
	since := 0
	if sStr := q.Get("since"); sStr != "" {
		since, err = strconv.Atoi(sStr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_since", fmt.Errorf("serve: since: %w", err))
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	writeJSON(w, http.StatusOK, j.await(ctx, since))
}

// ResultResponse is GET /v1/jobs/{id}/result's body for a done job.
type ResultResponse struct {
	ID         string            `json:"id"`
	Key        string            `json:"key"`
	Source     string            `json:"source"`
	ResultHash string            `json:"resultHash"`
	Result     *runnerResultJSON `json:"result"`
	Stats      any               `json:"stats,omitempty"`
}

// runnerResultJSON mirrors the runner cache envelope ({method, value}).
type runnerResultJSON struct {
	Method string `json:"method"`
	Value  any    `json:"value"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	state, src, errMsg := j.state, j.source, j.errMsg
	res, mf, stats := j.result, j.manifest, j.stats
	j.mu.Unlock()
	switch state {
	case StateDone:
		writeJSON(w, http.StatusOK, ResultResponse{
			ID:         j.id,
			Key:        j.key,
			Source:     src,
			ResultHash: mf.ResultHash,
			Result:     &runnerResultJSON{Method: res.Method, Value: res.Value},
			Stats:      stats,
		})
	case StateFailed:
		writeErr(w, http.StatusConflict, "job_failed", errors.New(errMsg))
	default:
		writeErr(w, http.StatusConflict, "job_not_finished",
			fmt.Errorf("serve: job %s is %s; poll with ?wait= or /events", j.id, state))
	}
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	mf := j.manifest
	j.mu.Unlock()
	if mf == nil {
		writeErr(w, http.StatusConflict, "job_not_finished",
			fmt.Errorf("serve: job %s has no manifest yet", j.id))
		return
	}
	writeJSON(w, http.StatusOK, mf)
}

// handleEvents streams job state changes as server-sent events: one
// `data:` line per version, ending after the terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErr(w, http.StatusNotImplemented, "no_stream", errors.New("serve: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		_, ch := j.watch()
		view := j.View()
		b, err := json.Marshal(view)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", b)
		fl.Flush()
		if view.State.Terminal() {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// statusRecorder captures the response code for the request metrics and
// forwards Flush so SSE keeps working through the middleware stack.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if fl, ok := sr.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// routeLabel maps a request path onto the fixed route vocabulary so
// request metrics have bounded cardinality: known routes keep their
// shape with the job ID collapsed to {id}, and everything else — 404
// scans, typos, unknown suffixes — becomes "other" instead of minting
// a fresh label per URL.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/metrics", "/v1/version", "/v1/jobs":
		return path
	}
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	if len(parts) >= 3 && parts[0] == "v1" && parts[1] == "jobs" && parts[2] != "" {
		switch {
		case len(parts) == 3:
			return "/v1/jobs/{id}"
		case len(parts) == 4 && (parts[3] == "result" || parts[3] == "manifest" || parts[3] == "events"):
			return "/v1/jobs/{id}/" + parts[3]
		}
	}
	return "other"
}

// obsMiddleware logs every request and counts it by route and status.
func (s *Server) obsMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sr, r)
		route := routeLabel(r.URL.Path)
		s.reg.Counter(
			fmt.Sprintf("comb_serve_requests_total{route=%q,code=%q}", route, strconv.Itoa(sr.code)),
			"HTTP requests by route and status code").Inc()
		s.log.Printf("serve: %s %s -> %d (%s)", r.Method, r.URL.Path, sr.code, time.Since(start).Round(time.Microsecond))
	})
}

// rateMiddleware applies the global token bucket to /v1/ paths.
func (s *Server) rateMiddleware(next http.Handler) http.Handler {
	if s.rate == nil {
		return next
	}
	limited := s.reg.Counter("comb_serve_rate_limited_total", "requests rejected by the global rate limiter")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") && !s.rate.allow() {
			limited.Inc()
			writeErr(w, http.StatusTooManyRequests, "rate_limited", errors.New("serve: global rate limit exceeded"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// clientID identifies a caller for the concurrency budget: the
// X-Comb-Client header when present, else the remote host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Comb-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// budgetMiddleware caps concurrent in-flight /v1/ requests per client.
func (s *Server) budgetMiddleware(next http.Handler) http.Handler {
	if s.budget == nil {
		return next
	}
	rejected := s.reg.Counter("comb_serve_budget_rejected_total", "requests rejected by the per-client concurrency budget")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		client := clientID(r)
		if !s.budget.acquire(client) {
			rejected.Inc()
			writeErr(w, http.StatusTooManyRequests, "client_budget_exceeded",
				fmt.Errorf("serve: client %q exceeded its concurrency budget", client))
			return
		}
		defer s.budget.release(client)
		next.ServeHTTP(w, r)
	})
}
