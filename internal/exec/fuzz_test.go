package exec

import (
	"bytes"
	"testing"
)

// FuzzCacheRestore feeds arbitrary bytes to Cache.Restore, seeded with
// valid snapshots (matching and mismatched quantum) and the garbage case.
// Bad input must fail with an error, never panic, and leave the cache
// usable: it still snapshots and restores into a fresh cache.
func FuzzCacheRestore(f *testing.F) {
	for _, q := range []float64{1e-6, 1e-3} {
		src := NewCache(q)
		src.Store([]float64{0.1, 0.2}, 1.5)
		src.Store([]float64{0.3}, 9)
		var buf bytes.Buffer
		if err := src.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("not a snapshot"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		c := NewCache(1e-6)
		c.Store([]float64{0.5, 0.5}, 2)
		if err := c.Restore(bytes.NewReader(in)); err != nil && c.Len() != 1 {
			t.Fatalf("failed restore changed the cache to %d entries", c.Len())
		}
		if v, ok := c.Lookup([]float64{0.5, 0.5}); !ok || v != 2 {
			t.Fatalf("existing entry lost: %g, %v", v, ok)
		}
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatalf("snapshot after restore: %v", err)
		}
		if err := NewCache(1e-6).Restore(&buf); err != nil {
			t.Fatalf("re-restoring the snapshot: %v", err)
		}
	})
}
