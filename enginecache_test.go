package nalix

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nalix/internal/cache"
	"nalix/internal/dataset"
	"nalix/internal/obs"
	"nalix/internal/xmp"
)

// newCachedEngine builds an engine with the layered cache on, loaded
// with the given document, following the documented order (EnableCache
// before loading, so translators pick up the translation cache).
func newCachedEngine(t testing.TB, name, xml string) *Engine {
	t.Helper()
	e := New()
	e.EnableCache(CacheConfig{})
	if err := e.LoadXMLString(name, xml); err != nil {
		t.Fatal(err)
	}
	return e
}

// normalized strips the fields a cache hit legitimately changes —
// Cached and the per-call Trace — so answers can be compared deeply.
func normalized(a *Answer) Answer {
	n := *a
	n.Cached = false
	n.Trace = nil
	return n
}

// TestCachedAnswersMatchUncachedXMPSweep runs every phrasing of every
// XMP study task against an uncached engine and a cached engine (the
// latter twice, so the second pass is served from the result cache) and
// requires the three answers to be deeply equal — results, values,
// bindings, parse tree, and the full Feedback list, for accepted and
// rejected phrasings alike.
func TestCachedAnswersMatchUncachedXMPSweep(t *testing.T) {
	var sb strings.Builder
	doc := dataset.Generate(1)
	if err := dataset.WriteXML(&sb, doc); err != nil {
		t.Fatal(err)
	}
	xml := sb.String()

	plain := New()
	if err := plain.LoadXMLString(doc.Name, xml); err != nil {
		t.Fatal(err)
	}
	cached := newCachedEngine(t, doc.Name, xml)

	asked, unique := 0, 0
	seen := map[string]bool{}
	for _, task := range xmp.Tasks() {
		for i, p := range task.Phrasings {
			label := fmt.Sprintf("%s/phrasing%d", task.ID, i)
			want, err := plain.Ask("", p.Text)
			if err != nil {
				t.Fatalf("%s: uncached ask: %v", label, err)
			}
			cold, err := cached.Ask("", p.Text)
			if err != nil {
				t.Fatalf("%s: cached cold ask: %v", label, err)
			}
			warm, err := cached.Ask("", p.Text)
			if err != nil {
				t.Fatalf("%s: cached warm ask: %v", label, err)
			}
			// A few phrasings repeat verbatim across tasks; their "cold"
			// ask is rightly a hit. Only first occurrences must miss.
			key := cache.CanonicalQuery(p.Text)
			if cold.Cached != seen[key] {
				t.Errorf("%s: first cached-engine ask Cached = %v, want %v", label, cold.Cached, seen[key])
			}
			if !seen[key] {
				seen[key] = true
				unique++
			}
			if !warm.Cached {
				t.Errorf("%s: second cached-engine ask not served from cache", label)
			}
			if !reflect.DeepEqual(normalized(want), normalized(cold)) {
				t.Errorf("%s: cold cached answer differs from uncached:\nuncached: %+v\ncached:   %+v",
					label, normalized(want), normalized(cold))
			}
			if !reflect.DeepEqual(normalized(want), normalized(warm)) {
				t.Errorf("%s: warm cached answer differs from uncached:\nuncached: %+v\ncached:   %+v",
					label, normalized(want), normalized(warm))
			}
			asked++
		}
	}
	if asked == 0 {
		t.Fatal("XMP suite produced no phrasings")
	}

	stats := cached.CacheStats()
	wantHits := int64(2*asked - unique)
	if stats.Result.Hits != wantHits || stats.Result.Misses != int64(unique) {
		t.Errorf("result cache = %d hits / %d misses, want %d / %d",
			stats.Result.Hits, stats.Result.Misses, wantHits, unique)
	}
}

// TestSingleflightColdQuery fires N goroutines at the same cold query
// and requires exactly one underlying evaluation: one goroutine leads,
// the rest either coalesce onto its in-flight run or read the result it
// just cached. The process-wide xquery_evals_total counter is the
// ground truth that the pipeline ran once.
func TestSingleflightColdQuery(t *testing.T) {
	e := newCachedEngine(t, "bib.xml", bibXML)

	const n = 8
	before := obs.Default.Snapshot().Counter("xquery_evals_total")
	var wg sync.WaitGroup
	answers := make([]*Answer, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = e.Ask("", `Find the titles of books published by "Addison-Wesley".`)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !answers[i].Accepted || len(answers[i].Results) != 1 {
			t.Fatalf("goroutine %d: answer = %+v", i, answers[i])
		}
	}
	if evals := obs.Default.Snapshot().Counter("xquery_evals_total") - before; evals != 1 {
		t.Errorf("xquery_evals_total advanced by %d, want 1", evals)
	}
	stats := e.CacheStats()
	if stats.Singleflight.Execs != 1 {
		t.Errorf("singleflight execs = %d, want 1", stats.Singleflight.Execs)
	}
	// Every non-leader was served without a pipeline run, either
	// coalesced in flight or from the result cache just after.
	if served := stats.Singleflight.Shared + stats.Result.Hits; served != n-1 {
		t.Errorf("shared(%d) + hits(%d) = %d, want %d",
			stats.Singleflight.Shared, stats.Result.Hits, served, n-1)
	}
}

// TestCacheInvalidationOnReload checks that reloading a document under
// the same name with different content makes the very next identical
// Ask recompute against the new corpus instead of serving stale bytes.
func TestCacheInvalidationOnReload(t *testing.T) {
	e := newCachedEngine(t, "bib.xml", bibXML)
	const q = `Find the titles of books published by "Addison-Wesley".`

	first, err := e.Ask("", q)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Accepted || len(first.Values) != 1 || first.Values[0] != "title=TCP/IP Illustrated" {
		t.Fatalf("baseline answer = %+v", first)
	}

	// Same document name, changed content: the Addison-Wesley book now
	// has a different title.
	changed := strings.Replace(bibXML, "TCP/IP Illustrated", "Advanced Programming", 1)
	if err := e.LoadXMLString("bib.xml", changed); err != nil {
		t.Fatal(err)
	}
	second, err := e.Ask("", q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("post-reload ask served from cache")
	}
	if len(second.Values) != 1 || second.Values[0] != "title=Advanced Programming" {
		t.Fatalf("post-reload values = %v, want the new title", second.Values)
	}
}

// TestCacheInvalidationOnSynonyms checks that AddSynonyms flips the
// outcome of an already-cached question: "imprint" is unknown
// vocabulary before, and resolves to publisher afterwards.
func TestCacheInvalidationOnSynonyms(t *testing.T) {
	e := newCachedEngine(t, "bib.xml", bibXML)
	const q = `Find the imprint of "Data on the Web".`

	before, err := e.Ask("", q)
	if err != nil {
		t.Fatal(err)
	}
	if before.Accepted {
		t.Fatalf("unknown term accepted before AddSynonyms: %+v", before)
	}
	// Warm the cache with the rejection, then teach the synonym.
	if again, err := e.Ask("", q); err != nil || !again.Cached {
		t.Fatalf("rejection not cached: ans=%+v err=%v", again, err)
	}

	e.AddSynonyms("publisher", "imprint")
	after, err := e.Ask("", q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("post-AddSynonyms ask served the stale rejection")
	}
	if !after.Accepted {
		t.Fatalf("rejected after AddSynonyms: %v", after.Feedback)
	}
	if len(after.Values) != 1 || after.Values[0] != "publisher=Morgan Kaufmann Publishers" {
		t.Fatalf("values = %v", after.Values)
	}
}

// TestResultCacheTraceAttr: on a cached engine a traced ask tags its
// root with result_cache. The first ask misses and runs eval; the
// repeat is a hit that skips eval and carries a trace of its own, not
// the first call's (the stored answer drops its trace).
func TestResultCacheTraceAttr(t *testing.T) {
	e := newCachedEngine(t, "bib.xml", bibXML)
	hasEval := func(tr *Trace) bool {
		for _, c := range tr.Root.Children {
			if c.Name == "eval" {
				return true
			}
		}
		return false
	}
	first, err := e.AskTraced("", acceptanceQuery)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || rootAttr(first.Trace, "result_cache") != "miss" || !hasEval(first.Trace) {
		t.Fatalf("first ask: Cached=%v, want a result_cache=miss trace with eval:\n%s", first.Cached, first.Trace.Render())
	}
	repeat, err := e.AskTraced("", acceptanceQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached || rootAttr(repeat.Trace, "result_cache") != "hit" || hasEval(repeat.Trace) {
		t.Fatalf("repeat ask: Cached=%v, want a result_cache=hit trace without eval:\n%s", repeat.Cached, repeat.Trace.Render())
	}
	if repeat.Trace == first.Trace || rootAttr(first.Trace, "result_cache") != "miss" {
		t.Errorf("the hit shares or rewrote the first call's trace:\n%s", first.Trace.Render())
	}
}
