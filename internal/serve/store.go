package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"comb/internal/obs"
	"comb/internal/runner"
	"comb/internal/runpipe"
	"comb/internal/spec"
)

// Store is the serve API's content-addressed result store: the runner's
// schema-2 disk cache (so server and CLI sweeps share entries, keyed by
// the same method/system/hash keys) plus a provenance sidecar per entry
// carrying the normalized spec, the manifest, and the hardware counters
// — everything a cache hit needs to answer a job with the same result
// hash a fresh run would produce.
//
// In front of the disk sits a memory tier of the entries Get has
// decoded, so a repeat answers without file I/O or JSON decoding, and
// every job a key answers shares its one Entry, read-only.  The tier
// fills on a disk hit only, so the unique keys of fresh runs never
// churn it, and keeps the last memEntries keys it was given.  Keys are
// content-addressed, so an entry stays correct after its files are
// removed.
type Store struct {
	cache *runner.Cache

	mu   sync.Mutex
	mem  map[string]*Entry
	keys [memEntries]string // mem's keys in the order they came in, as a ring
	next int                // the ring slot of the oldest key once it is full
}

// memEntries bounds the store's memory tier.
const memEntries = 256

// OpenStore returns a store rooted at dir (created lazily on first
// write).  runner.DefaultCacheDir makes the server share the CLI's
// persistent cache.
func OpenStore(dir string) *Store {
	return &Store{cache: runner.Open(dir), mem: make(map[string]*Entry)}
}

// Cache exposes the underlying runner cache tier (for `comb cache`
// style bookkeeping).
func (s *Store) Cache() *runner.Cache { return s.cache }

// Entry is one stored result: the typed envelope plus its provenance.
type Entry struct {
	Key      string
	Result   *runner.Result
	Manifest *obs.Manifest
	Stats    *runpipe.RunStats
}

// sidecar is the on-disk provenance record next to a cache entry.  The
// schema tracks the runner cache's: a sidecar whose schema or key does
// not match its envelope is ignored.
type sidecar struct {
	Schema   int               `json:"schema"`
	Key      string            `json:"key"`
	Spec     spec.Spec         `json:"spec"`
	Manifest *obs.Manifest     `json:"manifest"`
	Stats    *runpipe.RunStats `json:"stats,omitempty"`
}

// sidecarPath is the sidecar file for a key's cache entry.
func (s *Store) sidecarPath(key string) string {
	return strings.TrimSuffix(s.cache.Path(key), ".json") + ".manifest.json"
}

// Put stores a finished run under its key: the result envelope into the
// shared runner cache (atomic temp + rename) and the provenance sidecar
// next to it.  n must be the normalized spec the key was built from.
func (s *Store) Put(key string, n spec.Spec, out *runpipe.Outcome) error {
	res := &runner.Result{Method: out.Manifest.Method, Value: out.Value}
	if err := s.cache.Store(key, res); err != nil {
		return err
	}
	b, err := json.MarshalIndent(sidecar{
		Schema:   runner.SchemaVersion,
		Key:      key,
		Spec:     n,
		Manifest: out.Manifest,
		Stats:    out.Stats,
	}, "", "\t")
	if err != nil {
		return fmt.Errorf("serve: store sidecar: %w", err)
	}
	return obs.WriteFileAtomic(s.sidecarPath(key), append(b, '\n'), 0o644)
}

// Get answers a key from the memory tier, else from disk, or ok=false
// on any miss — no envelope, no sidecar (a CLI-only cache entry),
// corruption, or a schema/key mismatch.  Both files load or neither
// does, so a hit always carries the result hash the original run
// recorded.  The Entry may be shared and must not be modified.
func (s *Store) Get(key string) (*Entry, bool) {
	s.mu.Lock()
	e, ok := s.mem[key]
	s.mu.Unlock()
	if ok {
		return e, true
	}
	if e, ok = s.load(key); ok {
		e = s.remember(e)
	}
	return e, ok
}

// remember adds a disk hit to the memory tier, dropping the oldest key
// when the tier is full, and returns the entry the tier holds for the
// key: the first of two concurrent disk hits wins.
func (s *Store) remember(e *Entry) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if held, ok := s.mem[e.Key]; ok {
		return held
	}
	delete(s.mem, s.keys[s.next])
	s.keys[s.next] = e.Key
	s.next = (s.next + 1) % memEntries
	s.mem[e.Key] = e
	return e
}

// load reads a key's envelope and sidecar from disk.
func (s *Store) load(key string) (*Entry, bool) {
	res, ok := s.cache.Load(key)
	if !ok {
		return nil, false
	}
	b, err := os.ReadFile(s.sidecarPath(key))
	if err != nil {
		return nil, false
	}
	var sc sidecar
	if err := json.Unmarshal(b, &sc); err != nil {
		return nil, false
	}
	if sc.Schema != runner.SchemaVersion || sc.Key != key || sc.Manifest == nil || sc.Manifest.ResultHash == "" {
		return nil, false
	}
	return &Entry{Key: key, Result: res, Manifest: sc.Manifest, Stats: sc.Stats}, true
}
