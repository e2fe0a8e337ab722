package serve

import (
	"context"
	"sync"
	"time"

	"comb/internal/obs"
	"comb/internal/runner"
	"comb/internal/runpipe"
	"comb/internal/spec"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Result sources: how a done job got its answer.
const (
	// SourceRun: this job led the singleflight and ran the engine.
	SourceRun = "run"
	// SourceShared: an identical in-flight job ran; this one shared it.
	SourceShared = "shared"
	// SourceCache: answered from the result store without running.
	SourceCache = "cache"
)

// Job is one submitted point working through the server.  Every
// mutation bumps Version and swaps the changed channel, so long-poll
// and SSE watchers wake exactly when something they have not seen yet
// exists.
type Job struct {
	id   string
	key  string
	spec spec.Spec // normalized

	mu        sync.Mutex
	changed   chan struct{}
	version   int
	state     State
	source    string
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time

	result   *runner.Result
	stats    *runpipe.RunStats
	manifest *obs.Manifest
}

func newJob(id, key string, n spec.Spec) *Job {
	return &Job{
		id:        id,
		key:       key,
		spec:      n,
		changed:   make(chan struct{}),
		version:   1,
		state:     StateQueued,
		submitted: time.Now(),
	}
}

// View is a job's wire representation.
type View struct {
	ID         string     `json:"id"`
	Key        string     `json:"key"`
	State      State      `json:"state"`
	Source     string     `json:"source,omitempty"`
	ResultHash string     `json:"resultHash,omitempty"`
	Error      string     `json:"error,omitempty"`
	Submitted  time.Time  `json:"submittedAt"`
	Started    *time.Time `json:"startedAt,omitempty"`
	Finished   *time.Time `json:"finishedAt,omitempty"`
	Version    int        `json:"version"`
	Spec       spec.Spec  `json:"spec"`
}

// update applies fn under the lock, bumps the version and wakes
// watchers.  A non-nil persist receives the updated view while the lock
// is still held, before the wake-up, so whatever it records exists by
// the time any reader or watcher can see the change.
func (j *Job) update(fn func(), persist func(View)) {
	j.mu.Lock()
	fn()
	j.version++
	if persist != nil {
		persist(j.viewLocked())
	}
	close(j.changed)
	j.changed = make(chan struct{})
	j.mu.Unlock()
}

func (j *Job) setRunning() {
	j.update(func() {
		j.state = StateRunning
		j.started = time.Now()
	}, nil)
}

func (j *Job) finishOK(source string, res *runner.Result, mf *obs.Manifest, stats *runpipe.RunStats, persist func(View)) {
	j.update(func() {
		j.state = StateDone
		j.source = source
		j.result = res
		j.manifest = mf
		j.stats = stats
		j.finished = time.Now()
	}, persist)
}

func (j *Job) finishErr(err error, persist func(View)) {
	j.update(func() {
		j.state = StateFailed
		j.errMsg = err.Error()
		j.finished = time.Now()
	}, persist)
}

// terminal reports whether the job has reached a final state.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// View snapshots the job for serialization.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

// viewLocked is View for callers that hold j.mu.
func (j *Job) viewLocked() View {
	v := View{
		ID:        j.id,
		Key:       j.key,
		State:     j.state,
		Source:    j.source,
		Error:     j.errMsg,
		Submitted: j.submitted,
		Version:   j.version,
		Spec:      j.spec,
	}
	if j.manifest != nil {
		v.ResultHash = j.manifest.ResultHash
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// watch returns the job's current version and a channel closed on the
// next change.
func (j *Job) watch() (int, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.version, j.changed
}

// await blocks until the job's version exceeds since, the job is
// terminal AND newer than since, or ctx expires; it returns the
// then-current view.  since < 1 means "wait for terminal".
func (j *Job) await(ctx context.Context, since int) View {
	for {
		v, ch := j.watch()
		view := j.View()
		if since >= 1 && v > since {
			return view
		}
		if view.State.Terminal() {
			return view
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return j.View()
		}
	}
}
