package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"comb/internal/runpipe"
	"comb/internal/spec"
)

// These tests drive a server with no workers from the test goroutine:
// Submit, then runJob on what the queue hands back.  Nothing runs
// concurrently, so every count they read is exact.

// manualServer returns a worker-less server whose runs return out.
func manualServer(t *testing.T, cfg Config, out *runpipe.Outcome) *Server {
	t.Helper()
	cfg.Run = func(context.Context, spec.Spec) (*runpipe.Outcome, error) { return out, nil }
	s := newServer(cfg)
	t.Cleanup(s.Close)
	return s
}

// submitSpec submits specVariant(i) and fails the test on an error.
func submitSpec(t *testing.T, s *Server, i int) *Job {
	t.Helper()
	j, err := s.Submit(variantSpec(t, i))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// variantSpec decodes specVariant(i).
func variantSpec(t *testing.T, i int) spec.Spec {
	t.Helper()
	var sp spec.Spec
	if err := json.Unmarshal([]byte(specVariant(i)), &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// runNext runs the job at the head of the queue to its terminal state.
func runNext(s *Server) *Job {
	j := <-s.queue
	s.runJob(j)
	return j
}

// TestSubmitFinishAllocsFlat: one submit-and-finish cycle allocates the
// same with 16 and with 2,048 terminal jobs held, so the bookkeeping
// does not walk the jobs it holds.
func TestSubmitFinishAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on a schedule of its own")
	}
	out := fakeOutcome("sha256:flat")
	allocs := map[int]float64{}
	for _, held := range []int{16, 2048} {
		s := manualServer(t, Config{RetainJobs: held}, out)
		sp := variantSpec(t, 0)
		cycle := func() {
			if _, err := s.Submit(sp); err != nil {
				t.Fatal(err)
			}
			runNext(s)
		}
		// Fill to the cap and past job ID 255: fmt boxes a larger ID
		// number with an allocation of its own.
		for range held + 256 {
			cycle()
		}
		if s.held != held || len(s.order) != held || len(s.jobs) != held {
			t.Fatalf("held %d, order %d, index %d after filling; want %d each", s.held, len(s.order), len(s.jobs), held)
		}
		allocs[held] = testing.AllocsPerRun(200, cycle)
	}
	if allocs[16] != allocs[2048] {
		t.Errorf("allocs per cycle: %v with 16 jobs held, %v with 2048", allocs[16], allocs[2048])
	}
}

// TestEvictionKeepsRunningHead: a job still running at the head of the
// index stays, and the oldest terminal jobs behind it go, in order.
// Once it finishes, it is the oldest terminal job and goes first.
func TestEvictionKeepsRunningHead(t *testing.T) {
	s := manualServer(t, Config{RetainJobs: 2}, fakeOutcome("sha256:head"))
	head := submitSpec(t, s, 0)
	(<-s.queue).setRunning()

	var done []string
	for i := 1; i <= 4; i++ {
		submitSpec(t, s, i)
		done = append(done, runNext(s).id)
		// The first two finished jobs are held; each later one evicts
		// the oldest finished job still held.
		if want := int64(max(0, i-2)); s.mEvicted.Value() != want {
			t.Fatalf("after %d jobs finished: %d evicted, want %d", i, s.mEvicted.Value(), want)
		}
		for k, id := range done {
			if _, ok := s.Job(id); ok != (k >= len(done)-2) {
				t.Fatalf("after %d jobs finished: job %s resident = %v", i, id, ok)
			}
		}
	}
	assertOrder(t, s, head.id, done[2], done[3])

	s.runJob(head)
	assertOrder(t, s, done[2], done[3])
	if s.mEvicted.Value() != 3 || s.live != 0 || s.held != 2 {
		t.Errorf("evicted %d, live %d, held %d; want 3, 0, 2", s.mEvicted.Value(), s.live, s.held)
	}
}

func assertOrder(t *testing.T, s *Server, ids ...string) {
	t.Helper()
	views := s.Jobs()
	got := make([]string, len(views))
	for i, v := range views {
		got[i] = v.ID
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("resident jobs %v, want %v", got, ids)
	}
}

// TestInflightGaugeCountsQueuedAndRunning: comb_serve_inflight_jobs is
// queued plus running through a burst, and 0 once Close has failed the
// jobs still queued.
func TestInflightGaugeCountsQueuedAndRunning(t *testing.T) {
	s := manualServer(t, Config{QueueCap: 8}, fakeOutcome("sha256:gauge"))
	gauge := func(want int64, when string) {
		t.Helper()
		if got := s.mInflight.Value(); got != want {
			t.Errorf("%s: comb_serve_inflight_jobs = %d, want %d", when, got, want)
		}
	}
	for i := range 5 {
		submitSpec(t, s, i)
	}
	gauge(5, "5 queued")
	runNext(s)
	gauge(4, "4 queued, 1 done")
	j := <-s.queue
	j.setRunning()
	gauge(4, "3 queued, 1 running")
	s.runJob(j)
	gauge(3, "3 queued, 2 done")

	s.Close()
	gauge(0, "after Close")
	for _, v := range s.Jobs() {
		if !v.State.Terminal() {
			t.Errorf("job %s is %s after Close", v.ID, v.State)
		}
	}
}

// storeKeyed puts a fake outcome with hash under key.
func storeKeyed(t *testing.T, st *Store, key, hash string) {
	t.Helper()
	if err := st.Put(key, spec.Spec{Method: "polling", System: "ideal"}, fakeOutcome(hash)); err != nil {
		t.Fatal(err)
	}
}

// TestStoreMemoryTier: an entry Get has read from disk answers again
// after its files are gone, as the same shared Entry.
func TestStoreMemoryTier(t *testing.T) {
	dir := t.TempDir()
	st := OpenStore(dir)
	storeKeyed(t, st, "polling/ideal/mem", "sha256:mem")
	first, ok := st.Get("polling/ideal/mem")
	if !ok || first.Manifest.ResultHash != "sha256:mem" {
		t.Fatalf("disk hit: ok %v, entry %+v", ok, first)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	again, ok := st.Get("polling/ideal/mem")
	if !ok || again.Manifest.ResultHash != "sha256:mem" {
		t.Fatalf("memory hit: ok %v, entry %+v", ok, again)
	}
	if again != first {
		t.Error("the memory hit decoded its own copy instead of sharing the entry")
	}
	if _, ok := st.Get("polling/ideal/never-stored"); ok {
		t.Error("a key never stored answered")
	}
}

// TestStoreMemoryTierConcurrent: workers reading the same keys at once
// all get the one entry the tier holds for each key.  Run it with -race.
func TestStoreMemoryTierConcurrent(t *testing.T) {
	st := OpenStore(t.TempDir())
	const keys, readers = 4, 8
	for k := range keys {
		storeKeyed(t, st, fmt.Sprintf("polling/ideal/c%d", k), fmt.Sprintf("sha256:c%d", k))
	}
	got := make([][keys]*Entry, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				e, ok := st.Get(fmt.Sprintf("polling/ideal/c%d", k))
				if !ok {
					t.Errorf("reader %d: key %d missed", r, k)
					return
				}
				got[r][k] = e
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for r := range readers {
		for k := range keys {
			if e := got[r][k]; e != got[0][k] || e.Manifest.ResultHash != fmt.Sprintf("sha256:c%d", k) {
				t.Errorf("reader %d, key %d: entry %p (hash %s), reader 0 got %p", r, k, e, e.Manifest.ResultHash, got[0][k])
			}
		}
	}
}

// TestStoreMemoryTierBound: past memEntries keys the oldest falls out of
// the memory tier, and only a disk read could answer it again.
func TestStoreMemoryTierBound(t *testing.T) {
	dir := t.TempDir()
	st := OpenStore(dir)
	key := func(i int) string { return fmt.Sprintf("polling/ideal/k%03d", i) }
	for i := range memEntries + 1 {
		storeKeyed(t, st, key(i), fmt.Sprintf("sha256:%03d", i))
		if _, ok := st.Get(key(i)); !ok {
			t.Fatalf("key %d: no disk hit", i)
		}
	}
	if len(st.mem) != memEntries {
		t.Fatalf("memory tier holds %d entries, want %d", len(st.mem), memEntries)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key(0)); ok {
		t.Error("the oldest key is still in memory past the bound")
	}
	for _, i := range []int{1, memEntries} {
		if e, ok := st.Get(key(i)); !ok || e.Manifest.ResultHash != fmt.Sprintf("sha256:%03d", i) {
			t.Errorf("key %d: ok %v after its files were removed", i, ok)
		}
	}
}

// TestMemoryHitAnswersJob: a job whose key only the memory tier holds
// finishes with source cache and the stored hash, without a run.
func TestMemoryHitAnswersJob(t *testing.T) {
	dir := t.TempDir()
	st := OpenStore(dir)
	sp := variantSpec(t, 0)
	n, m, err := sp.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	key := spec.KeyOf(n, m)
	storeKeyed(t, st, key, "sha256:memhit")
	if _, ok := st.Get(key); !ok {
		t.Fatal("no disk hit")
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	s := newServer(Config{Store: st, Run: func(context.Context, spec.Spec) (*runpipe.Outcome, error) {
		t.Error("the engine ran for a stored key")
		return fakeOutcome("sha256:ran"), nil
	}})
	t.Cleanup(s.Close)
	if _, err := s.Submit(sp); err != nil {
		t.Fatal(err)
	}
	v := runNext(s).View()
	if v.State != StateDone || v.Source != SourceCache || v.ResultHash != "sha256:memhit" {
		t.Errorf("job: state %s, source %q, hash %q; want done, cache, sha256:memhit", v.State, v.Source, v.ResultHash)
	}
}
