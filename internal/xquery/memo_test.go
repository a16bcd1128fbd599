package xquery

import (
	"testing"

	"nalix/internal/dataset"
	"nalix/internal/obs"
)

// TestDomainMemoBound fills a document's structural-domain memo past its
// bound: the accounted bytes never exceed domainMemoBytes, an entry
// larger than the bound is not stored, and queries evaluated before,
// between and after the clears still return the planner-off answers.
func TestDomainMemoBound(t *testing.T) {
	const q = `for $b in doc("dblp.xml")//book, $a in doc("dblp.xml")//author, $t in doc("dblp.xml")//title
	           where mqf($b, $a, $t) return ($t, $a)`
	doc := dataset.GenerateEntries(12, 24)
	ref := NewEngine()
	ref.AddDocument(doc)
	ref.DisablePlanner = true
	want := runQuery(t, ref, q).String()

	e := NewEngine()
	e.AddDocument(doc)
	m := e.docs[doc.Name].memo
	accounted := func() int64 {
		m.mu.RLock()
		defer m.mu.RUnlock()
		return m.bytes
	}
	check := func(stage string) {
		t.Helper()
		if got := runQuery(t, e, q).String(); got != want {
			t.Fatalf("%s: answer differs from planner-off evaluation", stage)
		}
		if b := accounted(); b == 0 || b > domainMemoBytes {
			t.Fatalf("%s: memo accounts %d bytes, want 1 to %d", stage, b, domainMemoBytes)
		}
	}
	check("cold")
	working := accounted() // what the query stores into an empty memo

	// Synthetic entries under label id -2, which no label has, so no
	// query reads them back. Forty of a little over 1 MB each clear the
	// memo at least twice and drop the query's domains.
	filler := make(Sequence, 1<<16)
	for k := int32(0); k < 40; k++ {
		m.put(domainKey{lid: -2, n: 1, pre: [4]int32{k}}, filler)
		if b := accounted(); b > domainMemoBytes {
			t.Fatalf("after %d synthetic entries: memo accounts %d bytes, bound %d", k+1, b, domainMemoBytes)
		}
	}
	check("after clears")

	// Leave less room than the query stores, so its own stores clear
	// the memo part way through the evaluation.
	m.mu.Lock()
	m.m, m.bytes = make(map[domainKey]Sequence), 0
	m.mu.Unlock()
	big := domainKey{lid: -2, n: 1, pre: [4]int32{-1}}
	m.put(big, make(Sequence, (domainMemoBytes-working/2)/memoItemBytes))
	check("across a clear")
	if _, ok := m.get(big); ok {
		t.Error("the query's stores did not clear the memo")
	}

	huge := make(Sequence, domainMemoBytes/memoItemBytes)
	m.put(domainKey{lid: -3, n: 1}, huge)
	if _, ok := m.get(domainKey{lid: -3, n: 1}); ok {
		t.Error("an entry larger than the bound was stored")
	}
}

// TestLabelScanShared asks the translations of 20 distinct title-term
// questions on one engine. Their title scans are one label domain, so the
// document memo holds exactly one whole-label entry for title, and every
// answer equals the planner-off evaluation.
func TestLabelScanShared(t *testing.T) {
	terms := []string{"Database", "Query", "XML", "Transaction", "Integration",
		"Retrieval", "Semistructured", "Optimization", "Mining", "Stream",
		"Schema", "Web", "Warehousing", "Indexing", "View",
		"Languages", "Keyword", "Principles", "Survey", "Practice"}
	doc := dataset.GenerateEntries(100, 200)
	ref := NewEngine()
	ref.AddDocument(doc)
	ref.DisablePlanner = true
	e := NewEngine()
	e.AddDocument(doc)
	for _, term := range terms {
		q := `for $v1 in doc("dblp.xml")//title, $v2 in doc("dblp.xml")//book
		      where mqf($v1, $v2) and contains($v1, "` + term + `") return $v1`
		got, want := runQuery(t, e, q), runQuery(t, ref, q)
		if got.String() != want.String() {
			t.Fatalf("%q: answer differs from planner-off evaluation\ngot:  %s\nwant: %s", term, got, want)
		}
		if len(want) == 0 {
			t.Errorf("%q: no answer; the test exercises too little", term)
		}
	}
	ds := e.docs[doc.Name]
	title := ds.checker.LabelID("title")
	ds.memo.mu.RLock()
	defer ds.memo.mu.RUnlock()
	scans := 0
	for k, seq := range ds.memo.m {
		if k.lid == title && k.n == 0 {
			scans++
			if len(seq) != doc.LabelCount("title") {
				t.Errorf("memoized title scan holds %d nodes, want %d", len(seq), doc.LabelCount("title"))
			}
		}
	}
	if scans != 1 {
		t.Errorf("document memo holds %d whole-label title entries, want 1", scans)
	}
}

// TestColdRelatedChecksScaleLinearly pins the cost of cold candidate
// generation for "List the title and authors of every book." (its
// translation below): the relatedness checks it takes must grow about
// linearly with the corpus. Windows rooted at the collection top are
// not scanned; without that skip every editor-only book scans every
// author under the root, and the count grows fourfold per doubling.
// mqf_related_checks is process-wide, so this test must not run in
// parallel with others.
func TestColdRelatedChecksScaleLinearly(t *testing.T) {
	const q = `for $v1 in doc("dblp.xml")//title, $v2 in doc("dblp.xml")//author, $v3 in doc("dblp.xml")//book
	           where mqf($v1, $v2, $v3) return ($v1, $v2)`
	checks := obs.Default.Counter("mqf_related_checks")
	cold := func(n int) (int64, int) {
		e := NewEngine()
		e.AddDocument(dataset.GenerateEntries(n, 2*n))
		before := checks.Value()
		res := runQuery(t, e, q)
		return checks.Value() - before, len(res)
	}
	const n = 500
	small, smallItems := cold(n)
	large, largeItems := cold(2 * n)
	t.Logf("GenerateEntries(%d, %d): %d checks, %d items; GenerateEntries(%d, %d): %d checks, %d items",
		n, 2*n, small, smallItems, 2*n, 4*n, large, largeItems)
	if float64(large) > 2.5*float64(small) {
		t.Errorf("cold related checks grew %.2fx when the corpus doubled, want at most 2.5x", float64(large)/float64(small))
	}
}
