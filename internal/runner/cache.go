package runner

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"comb/internal/obs"
)

// SchemaVersion is stamped into every cache file.  Entries written by a
// different schema are treated as misses (and overwritten on the next
// store), so result-format changes can never resurrect stale data.
// Version 2: the method name enters both the cache key
// ("method/system/hash") and the result envelope ({"method", "value"});
// version-1 files carry neither and are rejected outright.
const SchemaVersion = 2

// DefaultCacheDir is where the CLI keeps its persistent result cache,
// relative to the working directory.
const DefaultCacheDir = "results/cache"

// entry is the on-disk JSON envelope around one point's Result.
type entry struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	Result Result `json:"result"`
}

// Cache is a directory of one-JSON-file-per-point results.  Files are
// written atomically (temp file + rename), so concurrent engines sharing
// a directory can only ever observe whole entries.  Corrupt, unreadable,
// foreign-schema or key-mismatched files are silently treated as misses:
// the point is simply re-simulated and the file rewritten.
type Cache struct {
	dir string
}

// Open returns a cache rooted at dir.  The directory is created lazily on
// the first store.
func Open(dir string) *Cache { return &Cache{dir: dir} }

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Path maps a key to the file an entry for it would live in.  Layered
// stores (the serve API's result store) derive sidecar file names from
// it so their artifacts sit next to the cache entry they describe.
func (c *Cache) Path(key string) string { return c.path(key) }

// path maps a key to its file: a sanitized, human-greppable prefix plus a
// short content hash of the full key to rule out collisions.
func (c *Cache) path(key string) string {
	san := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, key)
	if len(san) > 80 {
		san = san[:80]
	}
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, fmt.Sprintf("%s-%x.json", san, sum[:6]))
}

// Load returns the cached result for key, or ok=false on any miss —
// including a corrupt or schema-incompatible file.
func (c *Cache) Load(key string) (*Result, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		// Includes pre-schema-2 payloads: the Result envelope refuses
		// method-less values, so legacy files fail here, not mis-key.
		return nil, false
	}
	if e.Schema != SchemaVersion || e.Key != key {
		return nil, false
	}
	if e.Result.Method == "" || e.Result.Value == nil {
		return nil, false
	}
	r := e.Result
	return &r, true
}

// Store writes the result for key, creating the cache directory if needed.
func (c *Cache) Store(key string, r *Result) error {
	b, err := json.MarshalIndent(entry{Schema: SchemaVersion, Key: key, Result: *r}, "", "\t")
	if err != nil {
		return err
	}
	return obs.WriteFileAtomic(c.path(key), append(b, '\n'), 0o644)
}

// Clear removes every cache entry and reports how many were deleted.  A
// missing directory is an empty cache, not an error.
func (c *Cache) Clear() (int, error) {
	ents, err := os.ReadDir(c.dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		if err := os.Remove(filepath.Join(c.dir, de.Name())); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Len counts the cache's entries (for `comb cache stat` and tests).
func (c *Cache) Len() int {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range ents {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".json") {
			n++
		}
	}
	return n
}
