package cache

import (
	"fmt"
	"sync"
	"testing"

	"nalix/internal/obs"
)

func newTest(t *testing.T, cfg Config) (*Cache[string, string], *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Registry = reg
	if cfg.Name == "" {
		cfg.Name = "test"
	}
	c := New[string, string](cfg, func(k, v string) int64 {
		return int64(len(k) + len(v))
	})
	return c, reg
}

func TestCacheGetPut(t *testing.T) {
	c, reg := newTest(t, Config{})
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", "1")
	c.Put("b", "2")
	if v, ok := c.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	c.Put("a", "3") // replace
	if v, ok := c.Get("a"); !ok || v != "3" {
		t.Fatalf("after replace Get(a) = %q, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits 1 miss", st)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("cache_test_hits"); got != 2 {
		t.Fatalf("obs hits = %d, want 2", got)
	}
	if got := snap.Gauge("cache_test_entries"); got != 2 {
		t.Fatalf("obs entries gauge = %d, want 2", got)
	}
	if snap.Gauge("cache_test_bytes") != c.Bytes() {
		t.Fatalf("obs bytes gauge %d != Bytes() %d", snap.Gauge("cache_test_bytes"), c.Bytes())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard so the LRU order is global and the byte budget exact.
	c, _ := newTest(t, Config{Shards: 1, MaxBytes: 4 * (2 + entryOverhead)})
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), "")
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k4", "")
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 survived eviction despite being least recently used")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCacheByteAccounting(t *testing.T) {
	c, _ := newTest(t, Config{Shards: 1})
	c.Put("key", "0123456789")
	want := int64(len("key")+10) + entryOverhead
	if c.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", c.Bytes(), want)
	}
	c.Put("key", "01234")
	want = int64(len("key")+5) + entryOverhead
	if c.Bytes() != want {
		t.Fatalf("after replace Bytes = %d, want %d", c.Bytes(), want)
	}
	c.Delete("key")
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatalf("after delete Bytes=%d Len=%d, want 0,0", c.Bytes(), c.Len())
	}
}

func TestCacheOversizedValueNotCached(t *testing.T) {
	c, _ := newTest(t, Config{Shards: 1, MaxBytes: 128})
	c.Put("big", string(make([]byte, 4096)))
	if c.Len() != 0 {
		t.Fatal("oversized value was cached")
	}
}

func TestCachePurge(t *testing.T) {
	c, _ := newTest(t, Config{})
	for i := 0; i < 32; i++ {
		c.Put(fmt.Sprintf("k%d", i), "v")
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after purge Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("purged entry still retrievable")
	}
}

// TestCacheConcurrent hammers all operations from many goroutines; the
// -race run of verify.sh turns any unsynchronized access into a failure,
// and the accounting invariants are checked afterwards.
func TestCacheConcurrent(t *testing.T) {
	c, _ := newTest(t, Config{MaxBytes: 1 << 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%64)
				switch i % 4 {
				case 0, 1:
					c.Put(k, "value")
				case 2:
					c.Get(k)
				case 3:
					c.Delete(k)
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries < 0 || st.Bytes < 0 {
		t.Fatalf("negative accounting after concurrency: %+v", st)
	}
	if int64(c.Len()) != st.Entries {
		t.Fatalf("Len %d != stats entries %d", c.Len(), st.Entries)
	}
	// Recount against the shards to pin the gauges to ground truth.
	var n, bytes int64
	for _, s := range c.shards {
		s.mu.Lock()
		n += int64(len(s.items))
		bytes += s.bytes
		s.mu.Unlock()
	}
	if n != st.Entries || bytes != st.Bytes {
		t.Fatalf("gauges (entries=%d bytes=%d) drifted from shards (entries=%d bytes=%d)",
			st.Entries, st.Bytes, n, bytes)
	}
}
