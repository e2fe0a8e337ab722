//go:build goexperiment.synctest

// Timeout and cancellation tests for the engine under Go's synctest
// bubble: time is virtual, so a 5-second simulation timeout costs
// microseconds of wall clock and the elapsed assertions are exact
// equalities — any hidden real-time sleep or timer outside the bubble
// would break them.
// Build-gated so `go test ./...` without GOEXPERIMENT=synctest skips
// this file entirely; scripts/verify.sh and CI run it explicitly.

package runner

import (
	"context"
	"errors"
	"testing"
	"testing/synctest"
	"time"

	"comb/internal/method"
	"comb/internal/platform"
)

// stallMethod is a test-only registered method that never finishes: Run
// parks on the context until the engine's per-point timeout (or the
// caller) cancels it.  The paper's methods all terminate — simulated
// CPU work never durably blocks — so exercising the engine's timeout
// arm under virtual time needs a method that genuinely hangs.
type stallMethod struct{}

type stallParams struct{}

type stallResult struct{}

func (stallResult) String() string { return "stalled" }

func (stallMethod) Name() string            { return "stall" }
func (stallMethod) Describe() string        { return "test-only method that blocks until cancelled" }
func (stallMethod) PhaseTaxonomy() []string { return nil }
func (stallMethod) Validate(any) (any, error) {
	return stallParams{}, nil
}
func (stallMethod) Hash(any) string { return "stall" }
func (stallMethod) Run(ctx context.Context, _ *platform.Instance, _ method.Config) (method.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (stallMethod) DecodeParams([]byte) (any, error)           { return stallParams{}, nil }
func (stallMethod) DecodeResult([]byte) (method.Result, error) { return stallResult{}, nil }

func init() { method.Register(stallMethod{}) }

func stallPoint() Point {
	return Point{Method: "stall", System: "ideal", Params: stallParams{}}
}

func TestRunTimeoutVirtual(t *testing.T) {
	synctest.Run(func() {
		eng := New(Config{Workers: 1, Timeout: 5 * time.Second})
		start := time.Now()
		_, err := eng.Run(context.Background(), stallPoint())
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		if d := time.Since(start); d != 5*time.Second {
			t.Fatalf("virtual elapsed %v, want exactly the 5s timeout", d)
		}
	})
}

func TestRunCallerCancelVirtual(t *testing.T) {
	synctest.Run(func() {
		// No per-point timeout: only the caller's cancellation can end
		// this run, and it ends it at once.
		eng := New(Config{Workers: 1})
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(500 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := eng.Run(ctx, stallPoint())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
		if d := time.Since(start); d != 500*time.Millisecond {
			t.Fatalf("virtual elapsed %v, want exactly the 500ms until cancel", d)
		}
	})
}
