package mqf

import (
	"testing"
	"testing/quick"

	"nalix/internal/obs"
	"nalix/internal/xmldb"
)

// TestRelatedCandidatesDocumentOrder is the regression test for the
// candidate-order contract: RelatedCandidates returns candidates in
// document order (strictly ascending Pre), so a related ancestor — the
// MLCA witness itself — comes before every related node inside its
// subtree. An earlier version appended the witness after the subtree
// scan, handing the planner out-of-order domains.
func TestRelatedCandidatesDocumentOrder(t *testing.T) {
	f := func(seed int64) bool {
		doc := randomDoc(seed)
		c := NewChecker(doc)
		for _, n := range doc.Nodes() {
			if n.Kind != xmldb.ElementNode {
				continue
			}
			for _, label := range doc.Labels() {
				cands := c.RelatedCandidates(n, c.LabelID(label))
				for i := 1; i < len(cands); i++ {
					if cands[i-1].Pre >= cands[i].Pre {
						t.Logf("seed %d: RelatedCandidates(%s#%d, %q) out of document order at %d: Pre %d >= %d",
							seed, n.Label, n.Pre, label, i, cands[i-1].Pre, cands[i].Pre)
						return false
					}
				}
				// A related proper ancestor must precede every other
				// candidate: it has the smallest Pre of any node whose
				// subtree holds them.
				for i, cand := range cands {
					if cand != n && cand.IsAncestorOf(n) && i != 0 {
						t.Logf("seed %d: ancestor candidate %s#%d not first", seed, cand.Label, cand.Pre)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestFlushStatsExactCounts checks that sub-threshold batched hit/miss
// counts reach the package counters when FlushStats is called — the bug
// was that short-lived checkers (one query over a freshly loaded
// document) dropped every batch smaller than the flush threshold.
func TestFlushStatsExactCounts(t *testing.T) {
	doc := randomDoc(11)
	c := NewChecker(doc)
	var probe *xmldb.Node
	for _, n := range doc.Nodes() {
		if n.Kind == xmldb.ElementNode && n.Label != "root" {
			probe = n
			break
		}
	}
	if probe == nil {
		t.Fatal("random doc has no element node")
	}
	label := doc.Labels()[0]

	hits0 := obs.Default.Counter("mqf_cache_hits").Value()
	misses0 := obs.Default.Counter("mqf_cache_misses").Value()

	c.MLCADepth(probe, label) // miss: computes and memoizes
	for i := 0; i < 9; i++ {
		c.MLCADepth(probe, label) // nine hits on the memo
	}

	// Ten probes are far below the batch threshold, so nothing may have
	// been published yet...
	if h := obs.Default.Counter("mqf_cache_hits").Value(); h != hits0 {
		t.Fatalf("hits published before FlushStats: %d -> %d", hits0, h)
	}
	if m := obs.Default.Counter("mqf_cache_misses").Value(); m != misses0 {
		t.Fatalf("misses published before FlushStats: %d -> %d", misses0, m)
	}

	// ...and FlushStats must publish the exact tally.
	c.FlushStats()
	if h := obs.Default.Counter("mqf_cache_hits").Value() - hits0; h != 9 {
		t.Errorf("hits after FlushStats = %d, want 9", h)
	}
	if m := obs.Default.Counter("mqf_cache_misses").Value() - misses0; m != 1 {
		t.Errorf("misses after FlushStats = %d, want 1", m)
	}

	// A second flush has nothing left to publish.
	c.FlushStats()
	if h := obs.Default.Counter("mqf_cache_hits").Value() - hits0; h != 9 {
		t.Errorf("hits after second FlushStats = %d, want 9", h)
	}
}
