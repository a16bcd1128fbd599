package nalix

import (
	"fmt"

	"nalix/internal/cache"
	"nalix/internal/core"
	"nalix/internal/obs"
	"nalix/internal/xquery"
)

// DefaultCacheBytes is the combined byte budget of the three cache
// layers when CacheConfig.MaxBytes is zero.
const DefaultCacheBytes = 64 << 20

// CacheConfig tunes EnableCache. The zero value picks sane defaults.
type CacheConfig struct {
	// MaxBytes bounds the combined accounted size of the three layers
	// (0 = DefaultCacheBytes): half goes to the result cache, a quarter
	// each to the translation and plan caches.
	MaxBytes int64
}

// EnableCache turns on the three-layer query cache:
//
//   - translation: canonicalized sentence → core translation Result,
//     keyed per document instance and ontology generation;
//   - plan: XQuery text → compiled AST (pure, never invalidated);
//   - result: (corpus generation, ontology generation, document,
//     canonical sentence) → complete Answer, fronted by a singleflight
//     group so concurrent identical cold queries run the pipeline once.
//
// LoadXML and AddSynonyms bump the generations embedded in the keys, so
// a cached entry computed against older state can never be served.
// EnableCache is configuration: call it after SetMetricsRegistry (the
// layers bind their counters at construction) and before sharing the
// engine between goroutines. Answers served from the cache have
// Answer.Cached set and share slices with the cache — treat them as
// read-only.
func (e *Engine) EnableCache(cfg CacheConfig) {
	total := cfg.MaxBytes
	if total <= 0 {
		total = DefaultCacheBytes
	}
	reg := e.registry()
	e.transCache = cache.New[string, *core.Result](cache.Config{
		Name: "translation", MaxBytes: total / 4, Registry: reg,
	}, func(k string, r *core.Result) int64 {
		// The dominant retained pieces beyond the strings are the parse
		// tree and the AST; 1KiB covers them for the sentence lengths
		// the grammar accepts.
		return int64(len(k)+2*len(r.XQuery)) + 1024
	})
	e.planCache = cache.New[string, xquery.Expr](cache.Config{
		Name: "plan", MaxBytes: total / 4, Registry: reg,
	}, func(k string, _ xquery.Expr) int64 {
		// AST size tracks query text length closely.
		return int64(8*len(k)) + 256
	})
	e.resultCache = cache.New[string, *Answer](cache.Config{
		Name: "result", MaxBytes: total / 2, Registry: reg,
	}, answerSize)
	e.flight = cache.NewFlight[*Answer]("ask", reg)
	e.xq.SetPlanCache(e.planCache)
	for _, name := range e.Documents() {
		e.translators[name].SetCache(e.transCache)
	}
}

// CacheEnabled reports whether EnableCache has been called.
func (e *Engine) CacheEnabled() bool {
	return e.resultCache != nil
}

// answerSize is the result-cache sizer: the retained strings plus a
// fixed allowance for the struct and slice headers.
func answerSize(k string, a *Answer) int64 {
	n := int64(len(k) + len(a.ParseTree) + len(a.XQuery))
	for _, r := range a.Results {
		n += int64(len(r))
	}
	for _, v := range a.Values {
		n += int64(len(v))
	}
	for _, f := range a.Feedback {
		n += int64(len(f.Code) + len(f.Term) + len(f.Message) + len(f.Suggestion))
	}
	n += int64(len(a.Bindings)) * 48
	return n + 256
}

// resultKey is the result-cache key for one Ask: corpus generation,
// ontology generation, shard count, resolved document name, canonical
// sentence. The generations make every corpus or vocabulary mutation an
// implicit invalidation of all earlier entries; the shard count keys
// sharded and unsharded runs separately (SetShards also bumps the
// corpus generation, this makes the topology visible in the key).
func (e *Engine) resultKey(docName, english string) string {
	name := docName
	if name == "" {
		name = e.defName
	}
	return fmt.Sprintf("c%d|o%d|s%d|%s|%s",
		e.corpusGen.Load(), e.ont.Generation(), e.Shards(), name, cache.CanonicalQuery(english))
}

// serveCached returns a copy of a stored answer marked Cached, finishing
// the caller's trace with the given result_cache attribute ("hit" for a
// cache read, "coalesced" for a singleflight follower). Rejected answers
// still count toward the rejection metrics.
func (e *Engine) serveCached(stored *Answer, t *obs.Trace, how string) *Answer {
	ans := *stored
	ans.Cached = true
	ans.Trace = nil
	if !ans.Accepted {
		countRejected(&ans)
	}
	t.Root().Set("result_cache", how)
	e.finishTrace(t, &ans)
	return &ans
}

// CacheLayerStats mirrors one layer's statistics in the public API.
type CacheLayerStats struct {
	Name      string `json:"name"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Evictions int64  `json:"evictions"`
	Entries   int64  `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// FlightStats mirrors the singleflight group's statistics.
type FlightStats struct {
	// Execs counts leader runs (underlying pipeline executions).
	Execs int64 `json:"execs"`
	// Shared counts asks served by another goroutine's in-flight run.
	Shared int64 `json:"shared"`
}

// CacheStats is the engine's cache telemetry, one block per layer. The
// zero value (Enabled false) is returned while caching is off.
type CacheStats struct {
	Enabled      bool            `json:"enabled"`
	Translation  CacheLayerStats `json:"translation"`
	Plan         CacheLayerStats `json:"plan"`
	Result       CacheLayerStats `json:"result"`
	Singleflight FlightStats     `json:"singleflight"`
}

// CacheStats snapshots the three cache layers and the singleflight
// group. Safe to call concurrently with queries.
func (e *Engine) CacheStats() CacheStats {
	if !e.CacheEnabled() {
		return CacheStats{}
	}
	return CacheStats{
		Enabled:      true,
		Translation:  CacheLayerStats(e.transCache.Stats()),
		Plan:         CacheLayerStats(e.planCache.Stats()),
		Result:       CacheLayerStats(e.resultCache.Stats()),
		Singleflight: FlightStats(e.flight.Stats()),
	}
}
