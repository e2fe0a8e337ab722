package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"comb/internal/runpipe"
	"comb/internal/spec"
)

var errBoom = errors.New("boom")

func okRun(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
	return fakeOutcome("sha256:ok"), nil
}

func failRun(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
	return nil, errBoom
}

func TestWithTimeout(t *testing.T) {
	hang := func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	run := WithTimeout(10 * time.Millisecond)(hang)
	_, err := run(context.Background(), spec.Spec{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	// Zero disables; the next function runs untouched.
	out, err := WithTimeout(0)(okRun)(context.Background(), spec.Spec{})
	if err != nil || out == nil {
		t.Fatalf("passthrough: %v", err)
	}

	// A caller-cancelled context is the caller's error, not a timeout.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = WithTimeout(time.Hour)(hang)(cctx, spec.Spec{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: %v", err)
	}
}

func TestChainOrder(t *testing.T) {
	var order []string
	tag := func(name string) Middleware {
		return func(next RunFunc) RunFunc {
			return func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
				order = append(order, name)
				return next(ctx, s)
			}
		}
	}
	if _, err := Chain(tag("outer"), tag("inner"))(okRun)(context.Background(), spec.Spec{}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[outer inner]" {
		t.Fatalf("order = %v", order)
	}
}

func TestBreakerOpensAndProbes(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(2, time.Minute, nil)
	b.now = func() time.Time { return now }
	run := b.Middleware()(failRun)

	// Two consecutive failures trip it open…
	for i := 0; i < 2; i++ {
		if _, err := run(context.Background(), spec.Spec{}); !errors.Is(err, errBoom) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	// …after which calls bounce without reaching the engine.
	if _, err := run(context.Background(), spec.Spec{}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker: %v", err)
	}

	// After the cooldown a single probe goes through; its failure
	// re-opens immediately (no second threshold count).
	now = now.Add(2 * time.Minute)
	if _, err := run(context.Background(), spec.Spec{}); !errors.Is(err, errBoom) {
		t.Fatalf("probe: %v", err)
	}
	if _, err := run(context.Background(), spec.Spec{}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("re-opened: %v", err)
	}

	// A successful probe closes it fully.
	now = now.Add(2 * time.Minute)
	okAfter := b.Middleware()(okRun)
	if _, err := okAfter(context.Background(), spec.Spec{}); err != nil {
		t.Fatalf("healing probe: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := okAfter(context.Background(), spec.Spec{}); err != nil {
			t.Fatalf("closed breaker call %d: %v", i, err)
		}
	}
}

func TestBreakerIgnoresCallerCancellation(t *testing.T) {
	b := NewBreaker(1, time.Minute, nil)
	cctx, cancel := context.WithCancel(context.Background())
	cancelled := func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
		cancel()
		return nil, context.Canceled
	}
	if _, err := b.Middleware()(cancelled)(cctx, spec.Spec{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// The client walking away must not have tripped the breaker.
	if _, err := b.Middleware()(okRun)(context.Background(), spec.Spec{}); err != nil {
		t.Fatalf("breaker tripped by cancellation: %v", err)
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := newTokenBucket(1, 2) // 1/s, burst 2
	tb.now = func() time.Time { return now }

	if !tb.allow() || !tb.allow() {
		t.Fatal("burst must admit 2")
	}
	if tb.allow() {
		t.Fatal("bucket empty, third must be rejected")
	}
	now = now.Add(1500 * time.Millisecond) // refills 1.5 tokens
	if !tb.allow() {
		t.Fatal("refilled token rejected")
	}
	if tb.allow() {
		t.Fatal("only one whole token had refilled")
	}

	// A nil or zero-rate bucket admits everything.
	var off *tokenBucket
	if !off.allow() || !newTokenBucket(0, 1).allow() {
		t.Fatal("disabled limiter must admit")
	}
}

func TestClientBudget(t *testing.T) {
	b := newClientBudget(2)
	if !b.acquire("a") || !b.acquire("a") {
		t.Fatal("budget of 2 must admit 2")
	}
	if b.acquire("a") {
		t.Fatal("third concurrent must be rejected")
	}
	if !b.acquire("b") {
		t.Fatal("budgets are per client")
	}
	b.release("a")
	if !b.acquire("a") {
		t.Fatal("released slot must readmit")
	}
	// Disabled budget admits everything.
	var off *clientBudget
	if !off.acquire("x") {
		t.Fatal("disabled budget must admit")
	}
	off.release("x")
}
