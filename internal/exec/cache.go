package exec

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// DefaultQuantum is the default parameter quantization step for cache keys.
// Grid axes and optimizer stencils place points far coarser than 1e-9, so
// the default collapses floating-point jitter without ever merging distinct
// landscape points.
const DefaultQuantum = 1e-9

// maxEntries bounds the cache: once full, new points still execute and
// existing entries still hit, but nothing new is stored. This keeps
// long-lived engines (optimizers wandering through fresh points, servers
// reusing one cache across many requests) from growing without bound; at
// ~1M entries a 2-parameter cache holds ~32MB.
const maxEntries = 1 << 20

// Cache memoizes evaluation results keyed on quantized parameter vectors, so
// repeated visits to the same point — optimizer stencils re-probing a
// neighborhood, ZNE sweeps sharing scale-1 measurements, overlapping
// landscape samples — never re-execute a circuit. It is safe for concurrent
// use and only meaningful for evaluators that are pure functions of their
// parameters. Storage is capped at maxEntries (hits keep working; new
// points simply stop being stored); call Reset to reclaim a full cache.
//
// Engines sharing a Cache also share executions in flight: a point one batch
// is executing is not executed again by a concurrent batch, which waits for
// the result instead. An evaluator run by such an engine must therefore not
// evaluate through an engine on the same Cache itself — the inner batch
// could wait on the outer batch's flight.
type Cache struct {
	quantum float64

	mu       sync.RWMutex
	m        map[string]float64
	inflight map[string]slot // points a running engine batch is executing

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCache builds a cache with the given quantization step (<= 0 selects
// DefaultQuantum). Two parameter vectors share an entry iff every coordinate
// rounds to the same multiple of the step.
func NewCache(quantum float64) *Cache {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &Cache{quantum: quantum, m: make(map[string]float64), inflight: make(map[string]slot)}
}

// flight is one engine batch's execution of the points it claimed. When the
// execution ends, values holds the results (unless failed: the batch
// errored, was cancelled or panicked) and done is closed.
type flight struct {
	done   chan struct{}
	values []float64
	failed bool
}

// slot locates one claimed point: its index in a flight's values.
type slot struct {
	f *flight
	i int
}

// wait blocks until the slot's flight ends and returns its value; ok is
// false when the flight failed and the point is still unexecuted.
func (s slot) wait(ctx context.Context) (v float64, ok bool, err error) {
	select {
	case <-s.f.done:
	case <-ctx.Done():
		return 0, false, ctx.Err()
	}
	if s.f.failed {
		return 0, false, nil
	}
	return s.f.values[s.i], true, nil
}

// land ends flight f, which owned keys (index-aligned with f.values): on
// success the values are stored, and in every case the keys are released
// and waiters woken.
func (c *Cache) land(f *flight, keys []string, ok bool) {
	c.mu.Lock()
	for j, k := range keys {
		if k == "" {
			continue // uncacheable point, never claimed
		}
		if ok && len(c.m) < maxEntries {
			c.m[k] = f.values[j]
		}
		delete(c.inflight, k)
	}
	c.mu.Unlock()
	f.failed = !ok
	close(f.done)
}

// maxQuantized bounds the quantized coordinate magnitude the key encoding
// accepts. int64 covers ±9.22e18, but float64-to-int64 conversion of values
// at or beyond the boundary is unspecified in Go, so the cache stops one
// power of two short — any real parameter grid sits many orders of magnitude
// inside it.
const maxQuantized = 1 << 62

// key encodes the quantized coordinates of params. ok is false when any
// coordinate is NaN, infinite, or quantizes outside the int64-safe range —
// such vectors have no collision-free encoding (the conversion would
// overflow and collapse distinct points onto one key), so callers must
// bypass the cache for them.
func (c *Cache) key(params []float64) (_ string, ok bool) {
	buf := make([]byte, 8*len(params))
	for i, p := range params {
		q := math.Round(p / c.quantum)
		// NaN compares false against everything, so the range checks
		// alone would let it through to the unspecified conversion.
		if math.IsNaN(q) || q > maxQuantized || q < -maxQuantized {
			return "", false
		}
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(int64(q)))
	}
	return string(buf), true
}

// lookup returns the cached value for a key, counting the hit or miss.
func (c *Cache) lookup(k string) (float64, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// store records a value for a key, unless the cache is full.
func (c *Cache) store(k string, v float64) {
	c.mu.Lock()
	if len(c.m) < maxEntries {
		c.m[k] = v
	}
	c.mu.Unlock()
}

// Lookup returns the cached value at params, if present. Hit/miss accounting
// matches the engine's. Vectors with non-finite or out-of-range coordinates
// are never cached and always miss.
func (c *Cache) Lookup(params []float64) (float64, bool) {
	k, ok := c.key(params)
	if !ok {
		c.misses.Add(1)
		return 0, false
	}
	return c.lookup(k)
}

// Store records a value at params. Vectors with non-finite or out-of-range
// coordinates are dropped: they have no collision-free key, and storing them
// would return their value for unrelated parameter vectors.
func (c *Cache) Store(params []float64, v float64) {
	k, ok := c.key(params)
	if !ok {
		return
	}
	c.store(k, v)
}

// Hits returns the number of lookups served without an execution — stored
// entries, intra-batch duplicates of a pending point, and points another
// batch was executing.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of lookups that fell through to execution.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Len returns the number of stored points.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Reset drops all entries and zeroes the counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.m = make(map[string]float64)
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// Quantum returns the parameter quantization step keys are built with.
func (c *Cache) Quantum() float64 { return c.quantum }

// cacheSnapshot is the on-disk form of a Cache: the quantization step (keys
// are only meaningful relative to it) plus the stored entries. Counters are
// deliberately not persisted — a restored cache starts its hit/miss
// accounting fresh.
type cacheSnapshot struct {
	Version int
	Quantum float64
	Entries map[string]float64
}

// snapshotVersion guards the wire format of Snapshot/Restore.
const snapshotVersion = 1

// Snapshot writes the cache contents (quantization step and all stored
// entries, not the hit/miss counters) to w in a self-describing binary
// format, so a long-running service can spill its memoized executions to
// disk on shutdown and warm-start from them later via Restore.
func (c *Cache) Snapshot(w io.Writer) error {
	c.mu.RLock()
	snap := cacheSnapshot{
		Version: snapshotVersion,
		Quantum: c.quantum,
		Entries: make(map[string]float64, len(c.m)),
	}
	for k, v := range c.m {
		snap.Entries[k] = v
	}
	c.mu.RUnlock()
	return gob.NewEncoder(w).Encode(snap)
}

// Restore merges a Snapshot into the cache. The snapshot must have been
// taken with the same quantization step — keys are quantized coordinates, so
// entries written under a different step would decode to different points.
// Existing entries win over snapshot entries with the same key, and the
// merge respects the maxEntries cap. Counters are left untouched.
func (c *Cache) Restore(r io.Reader) error {
	var snap cacheSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("exec: decoding cache snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("exec: cache snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if snap.Quantum != c.quantum {
		return fmt.Errorf("exec: cache snapshot quantum %g does not match cache quantum %g", snap.Quantum, c.quantum)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range snap.Entries {
		if len(c.m) >= maxEntries {
			break
		}
		if _, ok := c.m[k]; !ok {
			c.m[k] = v
		}
	}
	return nil
}
