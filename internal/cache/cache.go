// Package cache is the query-cache substrate of the engine: a generic
// sharded LRU with byte-size accounting, a singleflight
// group that collapses concurrent identical misses into one computation,
// and the canonicalizer that turns English query sentences into cache
// keys. Three layers of the pipeline are built on it (see nalix.Engine):
// the translation cache in internal/core, the compiled-plan cache in
// internal/xquery, and the result cache in the engine facade. Every
// structure is stdlib-only and instrumented with per-layer hit, miss and
// eviction counters plus entry/byte gauges in internal/obs.
//
// Soundness of reuse is the caller's burden and is discharged by key
// construction, not by scanning for stale entries: keys embed generation
// counters (corpus generation, ontology generation) that mutation bumps,
// so an entry computed against old state can never be looked up again.
package cache

import (
	"sync"
	"sync/atomic"

	"nalix/internal/obs"
)

// Defaults for Config zero values.
const (
	// DefaultShards is the shard count when Config.Shards is zero:
	// enough to keep shard mutexes uncontended at request concurrency
	// without wasting maps on tiny caches.
	DefaultShards = 16

	// DefaultMaxBytes bounds a cache when Config.MaxBytes is zero.
	DefaultMaxBytes = 16 << 20

	// entryOverhead is the accounted fixed cost of one entry beyond what
	// the sizer reports: map bucket, list pointers, bookkeeping.
	entryOverhead = 96
)

// Config assembles a Cache.
type Config struct {
	// Name labels the layer in metric names (cache_<name>_hits, ...).
	Name string
	// MaxBytes bounds the accounted size of all entries (0 = default).
	// The bound is enforced per shard (MaxBytes/Shards), so a pathological
	// key distribution can under-fill but never over-fill the cache.
	MaxBytes int64
	// Shards is the shard count (0 = DefaultShards).
	Shards int
	// Registry receives the layer's counters and gauges (nil = obs.Default).
	Registry *obs.Registry
}

// Sizer reports the accounted byte size of one entry's key and value.
// It must be cheap and deterministic; entryOverhead is added on top.
type Sizer[K ~string, V any] func(K, V) int64

// Cache is a sharded LRU keyed by strings. All methods are safe for
// concurrent use; each shard has its own mutex and its own LRU order.
type Cache[K ~string, V any] struct {
	name     string
	maxBytes int64
	sizer    Sizer[K, V]
	shards   []*shard[K, V]

	// Stats are mirrored twice: plain atomics feed the registry-free
	// Stats() snapshot (what /debug/cache serves), and obs handles feed
	// whatever registry the layer was constructed with.
	nHits, nMisses, nEvicted atomic.Int64
	nEntries, nBytes         atomic.Int64
	hits, misses, evictions  *obs.StatCounter
	entries, bytes           *obs.Gauge
}

// shard is one LRU partition. mu guards every other field; the list
// holds the same entries as items, most-recently-used first.
type shard[K ~string, V any] struct {
	mu    sync.Mutex
	items map[K]*entry[K, V]
	lru   lruList[K, V]
	bytes int64
	max   int64
}

// entry is one cached value on its shard's intrusive LRU list.
type entry[K ~string, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *entry[K, V]
}

// New returns an empty cache. The sizer is consulted once per Put; a nil
// sizer accounts len(key) only.
func New[K ~string, V any](cfg Config, sizer Sizer[K, V]) *Cache[K, V] {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if sizer == nil {
		sizer = func(k K, _ V) int64 { return int64(len(k)) }
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	c := &Cache[K, V]{
		name:      cfg.Name,
		maxBytes:  cfg.MaxBytes,
		sizer:     sizer,
		shards:    make([]*shard[K, V], cfg.Shards),
		hits:      reg.Counter("cache_" + cfg.Name + "_hits"),
		misses:    reg.Counter("cache_" + cfg.Name + "_misses"),
		evictions: reg.Counter("cache_" + cfg.Name + "_evictions"),
		entries:   reg.Gauge("cache_" + cfg.Name + "_entries"),
		bytes:     reg.Gauge("cache_" + cfg.Name + "_bytes"),
	}
	perShard := cfg.MaxBytes / int64(cfg.Shards)
	if perShard < 1 {
		perShard = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard[K, V]{
			items: make(map[K]*entry[K, V]),
			max:   perShard,
		}
	}
	return c
}

// shardFor hashes a key (FNV-1a) onto its shard.
func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached value for k and whether it was present.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	var v V
	if ok {
		s.lru.moveToFront(e)
		v = e.val
	}
	s.mu.Unlock()

	if !ok {
		c.misses.Add(1)
		c.nMisses.Add(1)
		return v, false
	}
	c.hits.Add(1)
	c.nHits.Add(1)
	return v, true
}

// Put inserts or replaces the value for k, evicting least-recently-used
// entries until the shard fits its byte budget. A value whose accounted
// size alone exceeds the shard budget is not cached.
func (c *Cache[K, V]) Put(k K, v V) {
	size := c.sizer(k, v) + entryOverhead
	s := c.shardFor(k)
	entryDelta, byteDelta, evicted := s.put(k, v, size)
	if evicted > 0 {
		c.evictions.Add(evicted)
		c.nEvicted.Add(evicted)
	}
	c.account(entryDelta, byteDelta)
}

// put performs the locked portion of Put, returning the accounting
// deltas. A value whose accounted size exceeds the shard budget is not
// stored.
func (s *shard[K, V]) put(k K, v V, size int64) (entryDelta, byteDelta, evicted int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size > s.max {
		return 0, 0, 0
	}
	if old, ok := s.items[k]; ok {
		s.lru.remove(old)
		delete(s.items, k)
		s.bytes -= old.size
		entryDelta--
		byteDelta -= old.size
	}
	e := &entry[K, V]{key: k, val: v, size: size}
	s.items[k] = e
	s.lru.pushFront(e)
	s.bytes += size
	entryDelta++
	byteDelta += size
	for s.bytes > s.max {
		victim := s.lru.back()
		if victim == nil {
			break
		}
		s.lru.remove(victim)
		delete(s.items, victim.key)
		s.bytes -= victim.size
		entryDelta--
		byteDelta -= victim.size
		evicted++
	}
	return entryDelta, byteDelta, evicted
}

// Delete removes the entry for k, if present.
func (c *Cache[K, V]) Delete(k K) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	var freed int64
	if ok {
		s.lru.remove(e)
		delete(s.items, k)
		s.bytes -= e.size
		freed = e.size
	}
	s.mu.Unlock()
	if ok {
		c.account(-1, -freed)
	}
}

// Purge drops every entry.
func (c *Cache[K, V]) Purge() {
	for _, s := range c.shards {
		s.mu.Lock()
		n := int64(len(s.items))
		freed := s.bytes
		s.items = make(map[K]*entry[K, V])
		s.lru = lruList[K, V]{}
		s.bytes = 0
		s.mu.Unlock()
		c.account(-n, -freed)
	}
}

// Len reports the live entry count.
func (c *Cache[K, V]) Len() int {
	return int(c.nEntries.Load())
}

// Bytes reports the accounted size of the live entries.
func (c *Cache[K, V]) Bytes() int64 {
	return c.nBytes.Load()
}

// account moves the entry/byte gauges and their atomic mirrors.
func (c *Cache[K, V]) account(entryDelta, byteDelta int64) {
	if entryDelta != 0 {
		c.nEntries.Add(entryDelta)
		c.entries.Add(entryDelta)
	}
	if byteDelta != 0 {
		c.nBytes.Add(byteDelta)
		c.bytes.Add(byteDelta)
	}
}

// LayerStats is one cache layer's point-in-time statistics, the shape
// /debug/cache and Engine.CacheStats serve.
type LayerStats struct {
	Name      string `json:"name"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Evictions int64  `json:"evictions"`
	Entries   int64  `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// Stats snapshots the layer.
func (c *Cache[K, V]) Stats() LayerStats {
	return LayerStats{
		Name:      c.name,
		Hits:      c.nHits.Load(),
		Misses:    c.nMisses.Load(),
		Evictions: c.nEvicted.Load(),
		Entries:   c.nEntries.Load(),
		Bytes:     c.nBytes.Load(),
		MaxBytes:  c.maxBytes,
	}
}

// lruList is an intrusive doubly-linked list, most-recently-used first.
// It carries no lock of its own: the owning shard's mutex serializes all
// access (every s.lru touch happens with s.mu held).
type lruList[K ~string, V any] struct {
	head *entry[K, V]
	tail *entry[K, V]
}

// pushFront links e as the most-recently-used entry.
func (l *lruList[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

// remove unlinks e.
func (l *lruList[K, V]) remove(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront marks e most recently used.
func (l *lruList[K, V]) moveToFront(e *entry[K, V]) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// back returns the least-recently-used entry (nil when empty).
func (l *lruList[K, V]) back() *entry[K, V] {
	return l.tail
}
