//go:build goexperiment.synctest

// Middleware timing tests under Go's synctest bubble: run timeouts,
// breaker cooldowns and rate-limiter refills all use virtual time, so
// the assertions are exact and the tests finish in microseconds of wall
// clock.  Build-gated like the runner's synctest
// file; scripts/verify.sh and CI run these with GOEXPERIMENT=synctest.

package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/synctest"
	"time"

	"comb/internal/runpipe"
	"comb/internal/spec"
)

// stallRun blocks until the context ends — the serve-side analogue of a
// simulation that will never finish inside its deadline.
func stallRun(ctx context.Context, _ spec.Spec) (*runpipe.Outcome, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func someSpec() spec.Spec {
	return spec.Spec{Method: "pww", System: "gm"}
}

func TestWithTimeoutVirtual(t *testing.T) {
	synctest.Run(func() {
		run := WithTimeout(2 * time.Second)(stallRun)
		start := time.Now()
		_, err := run(context.Background(), someSpec())
		if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "run exceeded 2s") {
			t.Fatalf("err = %v, want wrapped middleware deadline", err)
		}
		if d := time.Since(start); d != 2*time.Second {
			t.Fatalf("virtual elapsed %v, want exactly 2s", d)
		}
	})
}

// TestBreakerCooldownVirtual walks the breaker's full state machine on
// the virtual clock: trip, refuse during cooldown, half-open probe,
// close on probe success — with the cooldown boundary hit exactly.
func TestBreakerCooldownVirtual(t *testing.T) {
	synctest.Run(func() {
		b := NewBreaker(2, 10*time.Second, nil)
		var fail error
		run := b.Middleware()(func(ctx context.Context, _ spec.Spec) (*runpipe.Outcome, error) {
			if fail != nil {
				return nil, fail
			}
			return &runpipe.Outcome{}, nil
		})
		ctx := context.Background()

		// Two consecutive failures trip the breaker.
		fail = errors.New("engine down")
		for i := 0; i < 2; i++ {
			if _, err := run(ctx, someSpec()); !errors.Is(err, fail) {
				t.Fatalf("attempt %d: err = %v", i, err)
			}
		}
		if _, err := run(ctx, someSpec()); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("tripped breaker admitted a run: %v", err)
		}

		// One tick before the cooldown elapses it still refuses.
		time.Sleep(10*time.Second - time.Nanosecond)
		if _, err := run(ctx, someSpec()); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("breaker reopened before cooldown: %v", err)
		}

		// At the boundary the single probe runs; its success closes the
		// breaker for everyone.
		time.Sleep(time.Nanosecond)
		fail = nil
		if _, err := run(ctx, someSpec()); err != nil {
			t.Fatalf("probe failed: %v", err)
		}
		if _, err := run(ctx, someSpec()); err != nil {
			t.Fatalf("closed breaker refused a run: %v", err)
		}
	})
}

// TestBreakerReopenVirtual: a failed probe re-opens for a full fresh
// cooldown.
func TestBreakerReopenVirtual(t *testing.T) {
	synctest.Run(func() {
		b := NewBreaker(1, 5*time.Second, nil)
		fail := errors.New("still down")
		run := b.Middleware()(func(context.Context, spec.Spec) (*runpipe.Outcome, error) {
			return nil, fail
		})
		ctx := context.Background()
		if _, err := run(ctx, someSpec()); !errors.Is(err, fail) {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Second)
		if _, err := run(ctx, someSpec()); !errors.Is(err, fail) {
			t.Fatalf("probe not admitted: %v", err)
		}
		// The failed probe re-armed the cooldown from now.
		if _, err := run(ctx, someSpec()); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("failed probe did not re-open: %v", err)
		}
		time.Sleep(5 * time.Second)
		if _, err := run(ctx, someSpec()); !errors.Is(err, fail) {
			t.Fatalf("second probe not admitted after fresh cooldown: %v", err)
		}
	})
}

// TestTokenBucketRefillVirtual pins the rate limiter's refill math on
// the virtual clock: burst spends down, time earns tokens back at
// exactly `rate` per second.
func TestTokenBucketRefillVirtual(t *testing.T) {
	synctest.Run(func() {
		tb := newTokenBucket(2, 3) // 2 tokens/s, burst 3
		for i := 0; i < 3; i++ {
			if !tb.allow() {
				t.Fatalf("burst token %d refused", i)
			}
		}
		if tb.allow() {
			t.Fatal("empty bucket granted a token")
		}
		// 500ms at 2 tokens/s earns exactly one token.
		time.Sleep(500 * time.Millisecond)
		if !tb.allow() {
			t.Fatal("refilled token refused")
		}
		if tb.allow() {
			t.Fatal("bucket granted more than the refill")
		}
	})
}
