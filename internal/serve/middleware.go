package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"comb/internal/obs"
	"comb/internal/runpipe"
	"comb/internal/spec"
)

// RunFunc executes one normalized spec.  runpipe.Run is the real thing;
// tests substitute fakes, and middleware wraps either.
type RunFunc func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error)

// Middleware decorates a RunFunc.  Middlewares compose with Chain; the
// server assembles breaker → timeout around the configured run
// function, so the breaker counts runs that failed or timed out.
type Middleware func(RunFunc) RunFunc

// Chain composes middlewares: the first argument becomes the outermost
// layer.
func Chain(mws ...Middleware) Middleware {
	return func(next RunFunc) RunFunc {
		for i := len(mws) - 1; i >= 0; i-- {
			next = mws[i](next)
		}
		return next
	}
}

// WithTimeout bounds each run with its own deadline on top of the
// caller's context.  d <= 0 is a no-op.
func WithTimeout(d time.Duration) Middleware {
	return func(next RunFunc) RunFunc {
		if d <= 0 {
			return next
		}
		return func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
			tctx, cancel := context.WithTimeout(ctx, d)
			defer cancel()
			out, err := next(tctx, s)
			// Surface the middleware's own deadline as such even when
			// the engine wrapped or swallowed the context error.
			if err != nil && tctx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
				return nil, fmt.Errorf("serve: run exceeded %v: %w", d, context.DeadlineExceeded)
			}
			return out, err
		}
	}
}

// ErrBreakerOpen is returned (wrapped) while the circuit breaker is
// refusing work; jobs failing with it did not touch the engine.
var ErrBreakerOpen = errors.New("serve: circuit breaker open")

// Breaker states, exported via the comb_serve_breaker_state gauge.
const (
	breakerClosed = iota // normal operation
	breakerHalf          // cooldown elapsed, one probe in flight
	breakerOpen          // refusing work until cooldown elapses
)

// Breaker is a three-state circuit breaker: `threshold` consecutive
// failures open it, opened it rejects runs instantly for `cooldown`,
// then it admits a single probe — success closes it, failure re-opens.
// Caller-side cancellation is not counted as an engine failure.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
	probing  bool

	opens  *obs.Counter
	stateG *obs.Gauge
}

// NewBreaker returns a breaker tripping after threshold consecutive
// failures and cooling down for cooldown before probing.  reg may be
// nil; otherwise comb_serve_breaker_open_total and
// comb_serve_breaker_state are maintained.
func NewBreaker(threshold int, cooldown time.Duration, reg *obs.Registry) *Breaker {
	b := &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
	if reg != nil {
		b.opens = reg.Counter("comb_serve_breaker_open_total", "times the circuit breaker tripped open")
		b.stateG = reg.Gauge("comb_serve_breaker_state", "circuit breaker state (0 closed, 1 half-open, 2 open)")
	}
	return b
}

// allow reports whether a run may proceed right now.
func (b *Breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalf
		b.probing = true
		b.setStateGauge()
		return true
	default: // half-open: only the in-flight probe runs
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// report feeds a run's outcome back into the state machine.
func (b *Breaker) report(err error, callerCancelled bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalf {
		b.probing = false
	}
	if callerCancelled {
		return // the client went away; says nothing about the engine
	}
	if err == nil {
		b.fails = 0
		b.state = breakerClosed
		b.setStateGauge()
		return
	}
	b.fails++
	if b.state == breakerHalf || b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.fails = 0
		if b.opens != nil {
			b.opens.Inc()
		}
		b.setStateGauge()
	}
}

func (b *Breaker) setStateGauge() {
	if b.stateG != nil {
		b.stateG.Set(int64(b.state))
	}
}

// Middleware wraps a RunFunc with the breaker.
func (b *Breaker) Middleware() Middleware {
	return func(next RunFunc) RunFunc {
		return func(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
			if !b.allow() {
				return nil, fmt.Errorf("serve: %s: %w", s.Key(), ErrBreakerOpen)
			}
			out, err := next(ctx, s)
			b.report(err, ctx.Err() != nil)
			return out, err
		}
	}
}

// tokenBucket is a monotonic-time token bucket: `rate` tokens per
// second up to `burst`.  The zero rate admits everything.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: time.Now}
}

func (t *tokenBucket) allow() bool {
	if t == nil || t.rate <= 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	if !t.last.IsZero() {
		t.tokens += now.Sub(t.last).Seconds() * t.rate
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
	}
	t.last = now
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// clientBudget caps concurrent in-flight requests per client identity.
// A long-poll or SSE stream holds a slot for its whole duration, so one
// client cannot monopolize the connection pool.
type clientBudget struct {
	mu  sync.Mutex
	max int
	m   map[string]int
}

func newClientBudget(max int) *clientBudget {
	return &clientBudget{max: max, m: make(map[string]int)}
}

func (b *clientBudget) acquire(client string) bool {
	if b == nil || b.max <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m[client] >= b.max {
		return false
	}
	b.m[client]++
	return true
}

func (b *clientBudget) release(client string) {
	if b == nil || b.max <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m[client] <= 1 {
		delete(b.m, client)
	} else {
		b.m[client]--
	}
}
