package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"comb"
	"comb/internal/runner"
	"comb/internal/serve"
)

// cmdServe runs the benchmark service: an HTTP API accepting versioned
// RunSpecs and answering with content-addressed results (see
// docs/SERVING.md).
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent benchmark jobs (0 = GOMAXPROCS)")
	queueCap := fs.Int("queue", 64, "accepted-but-unstarted job backlog before 503s")
	retain := fs.Int("retain", 0, "finished jobs kept in memory (0 = 1024, negative = unlimited)")
	noStore := fs.Bool("no-store", false, "serve from memory only (no persistent result store)")
	cacheDir := fs.String("cache-dir", runner.DefaultCacheDir, "persistent result store directory (shared with sweep cache)")
	jobsDir := fs.String("jobs-dir", "", "write per-job artifact directories here ('' disables)")
	timeout := fs.Duration("timeout", 0, "per-run deadline (0 disables)")
	breakerFails := fs.Int("breaker-fails", 5, "consecutive failures that open the circuit breaker (0 disables)")
	breakerCool := fs.Duration("breaker-cooldown", 30*time.Second, "open-breaker cooldown before probing")
	rate := fs.Float64("rate", 0, "accepted /v1/ requests per second (0 disables)")
	burst := fs.Int("burst", 10, "rate limiter burst capacity")
	budget := fs.Int("client-budget", 0, "concurrent in-flight /v1/ requests per client (0 disables)")
	quiet := fs.Bool("quiet", false, "suppress per-request and per-job log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := serve.Config{
		Workers:           *workers,
		QueueCap:          *queueCap,
		RetainJobs:        *retain,
		JobsDir:           *jobsDir,
		Timeout:           *timeout,
		BreakerThreshold:  *breakerFails,
		BreakerCooldown:   *breakerCool,
		Rate:              *rate,
		Burst:             *burst,
		ClientConcurrency: *budget,
	}
	if !*noStore {
		cfg.Store = serve.OpenStore(*cacheDir)
	}
	if !*quiet {
		cfg.Log = log.New(os.Stderr, "", log.LstdFlags)
	}
	srv := serve.New(cfg)
	defer srv.Close()

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "comb serve: listening on %s (spec v%d; POST /v1/jobs)\n", *addr, comb.SpecVersion)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}

// cmdSubmit posts one versioned spec to a running server, long-polls
// until the job is terminal, and prints the result and its hash.
func cmdSubmit(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "server base URL")
	specPath := fs.String("spec", "", "versioned spec JSON file ('-' for stdin)")
	client := fs.String("client", "", "X-Comb-Client identity for the server's per-client budget")
	wait := fs.Duration("wait", 30*time.Second, "how long to long-poll per request")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return errors.New("submit: need -spec <file.json> (see docs/SERVING.md; '-' reads stdin)")
	}
	body, err := readSpecFile(*specPath)
	if err != nil {
		return err
	}
	base := strings.TrimSuffix(*addr, "/")
	hc := &http.Client{}

	view, err := postJob(ctx, hc, base, *client, body)
	if err != nil {
		return err
	}
	fmt.Printf("job %s accepted (key %s)\n", view.ID, view.Key)

	for !view.State.Terminal() {
		view, err = getJob(ctx, hc, base, *client, view.ID, *wait, view.Version)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "job %s: %s\n", view.ID, view.State)
	}
	if view.State == serve.StateFailed {
		return fmt.Errorf("submit: job %s failed: %s", view.ID, view.Error)
	}

	res, err := getResult(ctx, hc, base, *client, view.ID)
	if err != nil {
		return err
	}
	fmt.Printf("source          %s\n", res.Source)
	fmt.Printf("result hash     %s\n", res.ResultHash)
	b, err := json.MarshalIndent(res.Result, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func readSpecFile(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	// An argument that starts with '{' is an inline spec document, not a
	// file name — the form selfcheck replay lines quote.
	if strings.HasPrefix(strings.TrimSpace(path), "{") {
		return []byte(path), nil
	}
	return os.ReadFile(path)
}

// decodeOrAPIError decodes a 2xx body into v, or surfaces the server's
// structured error for anything else.
func decodeOrAPIError(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error.Message != "" {
			return fmt.Errorf("server: %s (%s)", e.Error.Message, e.Error.Code)
		}
		return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

func doJSON(ctx context.Context, hc *http.Client, method, url, client string, body io.Reader, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if client != "" {
		req.Header.Set("X-Comb-Client", client)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	return decodeOrAPIError(resp, v)
}

func postJob(ctx context.Context, hc *http.Client, base, client string, spec []byte) (serve.View, error) {
	var v serve.View
	err := doJSON(ctx, hc, http.MethodPost, base+"/v1/jobs", client, strings.NewReader(string(spec)), &v)
	return v, err
}

func getJob(ctx context.Context, hc *http.Client, base, client, id string, wait time.Duration, since int) (serve.View, error) {
	var v serve.View
	url := fmt.Sprintf("%s/v1/jobs/%s?wait=%s&since=%d", base, id, wait, since)
	err := doJSON(ctx, hc, http.MethodGet, url, client, nil, &v)
	return v, err
}

func getResult(ctx context.Context, hc *http.Client, base, client, id string) (serve.ResultResponse, error) {
	var r serve.ResultResponse
	err := doJSON(ctx, hc, http.MethodGet, base+"/v1/jobs/"+id+"/result", client, nil, &r)
	return r, err
}

// scrapeMetrics fetches a running server's /metrics exposition.
func scrapeMetrics(ctx context.Context, addr string) error {
	base := strings.TrimSuffix(addr, "/")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: server returned HTTP %d", resp.StatusCode)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}
