package runner

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comb/internal/core"
)

// corruptions are the ways a cache file can rot on disk: a crashed
// writer, a disk error, a foreign tool, an old schema.  Every one must
// read as a miss — never an error, never a crash.
var corruptions = []struct {
	name    string
	content string
}{
	{"empty", ""},
	{"truncated", `{"schema":2,"key":"polling/ideal/100000/1`},
	{"garbage", "\x00\xff\x7fnot json at all"},
	{"wrong-type", `[1,2,3]`},
	{"foreign-schema", `{"schema":999,"key":"KEY","result":{"method":"polling","value":{}}}`},
	{"key-mismatch", `{"schema":2,"key":"polling/tcp/1/1/1","result":{"method":"polling","value":{}}}`},
	{"no-result", `{"schema":2,"key":"KEY","result":{}}`},
	{"unknown-method", `{"schema":2,"key":"KEY","result":{"method":"nosuch","value":{}}}`},
	// A pre-refactor (schema 1) entry: no method in the key, a bare
	// method-keyed result instead of the {"method","value"} envelope.
	{"schema-1-legacy", `{"schema":1,"key":"ideal/100000/100000/5000000","result":{"polling":{"MsgSize":100000}}}`},
}

// seedCache runs pt once through a disk-backed engine so its cache file
// exists, and returns the cache and the file's path.
func seedCache(t *testing.T, pt Point) (*Cache, string) {
	t.Helper()
	cache := Open(filepath.Join(t.TempDir(), "cache"))
	eng := New(Config{Workers: 1, Disk: cache})
	if _, err := eng.Run(context.Background(), pt); err != nil {
		t.Fatal(err)
	}
	n, _, err := pt.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	path := cache.path(n.Key())
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}
	return cache, path
}

func TestLoadTreatsCorruptFilesAsMiss(t *testing.T) {
	pt := quickPoint()
	n, _, err := pt.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	key := n.Key()
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			cache, path := seedCache(t, pt)
			if _, ok := cache.Load(key); !ok {
				t.Fatal("sanity: fresh entry does not load")
			}
			content := strings.ReplaceAll(c.content, "KEY", key)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			if r, ok := cache.Load(key); ok {
				t.Fatalf("corrupt file (%s) loaded as %+v", c.name, r)
			}
		})
	}
}

func TestEngineRecomputesOverCorruptCache(t *testing.T) {
	pt := quickPoint()
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			cache, path := seedCache(t, pt)
			if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			// A fresh engine (no memo) over the rotten directory must
			// re-simulate and heal the file, not crash or serve garbage.
			eng := New(Config{Workers: 1, Disk: cache})
			res, err := eng.Run(context.Background(), pt)
			if err != nil {
				t.Fatalf("corrupt cache file broke the run: %v", err)
			}
			pr, ok := As[*core.PollingResult](res)
			if !ok || pr.Availability <= 0 {
				t.Fatalf("recomputed result implausible: %+v", res)
			}
			if got := eng.Stats(); got.Runs != 1 || got.DiskHits != 0 {
				t.Errorf("expected one fresh simulation, got stats %+v", got)
			}
			// The rewrite must have healed the entry for the next engine.
			n, _, _ := pt.Normalized()
			if _, ok := cache.Load(n.Key()); !ok {
				t.Error("cache entry not rewritten after recompute")
			}
			if b, _ := os.ReadFile(path); string(b) == c.content {
				t.Error("corrupt bytes still on disk after recompute")
			}
		})
	}
}

func TestStrayFilesDoNotBreakCacheOps(t *testing.T) {
	cache, _ := seedCache(t, quickPoint())
	for name, content := range map[string]string{
		"README.txt":   "not a cache entry",
		"rotten.json":  "{broken",
		".tmp-orphan1": "half-written",
	} {
		if err := os.WriteFile(filepath.Join(cache.Dir(), name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n := cache.Len(); n != 2 { // the real entry + rotten.json
		t.Errorf("Len = %d, want 2", n)
	}
	n, err := cache.Clear()
	if err != nil {
		t.Fatalf("Clear over stray files: %v", err)
	}
	if n != 2 {
		t.Errorf("Clear removed %d entries, want 2", n)
	}
}

// TestStoreFailureLeavesNoTempFile: when the final rename fails (here a
// directory squats on the entry's path), Store reports the error and
// leaves no half-written temp file behind in the cache directory.
func TestStoreFailureLeavesNoTempFile(t *testing.T) {
	cache := Open(filepath.Join(t.TempDir(), "cache"))
	const key = "polling/ideal/squatted"
	if err := os.MkdirAll(filepath.Join(cache.path(key), "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(key, &Result{Method: "polling", Value: &core.PollingResult{}}); err == nil {
		t.Fatal("Store over a directory succeeded")
	}
	ents, err := os.ReadDir(cache.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			t.Errorf("Store left %s behind", de.Name())
		}
	}
}
