package sweep

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// DefaultCacheDir is where cmd/sbsweep keeps its result cache.
const DefaultCacheDir = "results/cache"

// Cache is a content-addressed on-disk result store. Each entry lives at
// Dir/<hh>/<hash>.json where hash is the salted SHA-256 of the job key's
// canonical form and hh its first two hex digits. Entries are written to
// a temp file and renamed into place, so a killed or cancelled run only
// ever leaves complete entries behind.
type Cache struct {
	// Dir is the cache root.
	Dir string
	// Salt is the code-version salt mixed into every address (see
	// experiments.CodeVersion). Bump it whenever a change alters
	// simulated results: stale entries are then never addressed again.
	// Clearing the directory merely reclaims the disk.
	Salt string
}

// entry is the on-disk envelope. The full canonical key and salt are
// stored alongside the value so a hash collision or a corrupt file is
// detected as a miss, never wrongly reused.
type entry struct {
	Key   string          `json:"key"`
	Salt  string          `json:"salt"`
	Value json.RawMessage `json:"value"`
}

func (c *Cache) path(k *Key) string {
	h := k.Hash(c.Salt)
	return filepath.Join(c.Dir, h[:2], h+".json")
}

// Get loads the cached value for k into out (a pointer) and reports
// whether a valid entry existed. Corrupt or mismatched entries are
// treated as misses (the job reruns and overwrites them).
func (c *Cache) Get(k *Key, out any) (bool, error) {
	f, err := os.Open(c.path(k))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	var e entry
	if err := json.NewDecoder(f).Decode(&e); err != nil {
		return false, nil
	}
	if e.Key != k.Canonical() || e.Salt != c.Salt {
		return false, nil
	}
	if err := json.Unmarshal(e.Value, out); err != nil {
		return false, nil
	}
	return true, nil
}

// Put stores v for k atomically (temp file + rename).
func (c *Cache) Put(k *Key, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	// Indented with a trailing newline: the format every entry already on
	// disk has.
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entry{Key: k.Canonical(), Salt: c.Salt, Value: raw}); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Len counts complete entries on disk.
func (c *Cache) Len() int {
	n := 0
	filepath.WalkDir(c.Dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && d != nil && !d.IsDir() && strings.HasSuffix(p, ".json") {
			n++
		}
		return nil
	})
	return n
}

// Clear removes the whole cache directory.
func (c *Cache) Clear() error { return os.RemoveAll(c.Dir) }
