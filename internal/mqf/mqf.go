// Package mqf implements the Meaningful Query Focus machinery of
// Schema-Free XQuery (Li, Yang, Jagadish, VLDB 2004), which NaLIX uses as
// the target of natural-language query translation. The central predicate
// is *meaningful relatedness* via Meaningful Lowest Common Ancestors
// (MLCA): nodes u and v, with labels A and B, are meaningfully related iff
// their LCA is as deep as the deepest LCA that v forms with any A-node and
// that u forms with any B-node — i.e. u and v are mutually nearest for
// their labels. This is what makes mqf(director, title) pick the title of a
// movie rather than the title of a book in the paper's Section 2 example.
package mqf

import (
	"sync"

	"nalix/internal/obs"
	"nalix/internal/xmldb"
)

// Always-on process counters: the mqf memo cache dominates join cost, so
// its hit rate is a first-class telemetry signal. Counter handles are
// hoisted to package init, and — because these sit in the innermost join
// loops, where even one atomic add per event is measurable (and under the
// race detector costs more than the join work itself) — events are
// accumulated locally and flushed to the counters in batches.
var (
	cacheHits     = obs.NewCounter("mqf_cache_hits")
	cacheMisses   = obs.NewCounter("mqf_cache_misses")
	pairsChecked  = obs.NewCounter("mqf_pairs_checked")
	relatedChecks = obs.NewCounter("mqf_related_checks")
)

// statsFlush is the local-accumulation batch size: a Checker publishes its
// pending cache-hit/miss counts once their sum reaches this many events.
// Totals therefore trail reality by at most statsFlush-1 events per
// Checker — irrelevant against the millions a study run produces.
const statsFlush = 1 << 12

// Checker answers meaningful-relatedness queries against one document. It
// memoizes mlca-depth lookups, which dominate the cost of evaluating
// where-clauses containing mqf() over large variable domains. Checkers
// are safe for concurrent use: the memo is the only mutable state and mu
// guards it.
type Checker struct {
	doc *xmldb.Document
	// labelIDs assigns each document label a dense id so the memo keys
	// below hash two machine words instead of a string per probe (the
	// memo lookups sit in the evaluator's innermost loops). Built once in
	// NewChecker and read-only afterwards.
	labelIDs map[string]int32

	mu    sync.Mutex
	cache map[memoKey]int
	// Pending cache-hit/miss counts, guarded by mu and flushed to the
	// package counters in statsFlush-sized batches (see statsFlush).
	hits   int64
	misses int64
}

// memoKey keys the depth memo by (node Pre, dense label id).
type memoKey struct {
	node int32
	lid  int32
}

// NewChecker returns a Checker for the given document.
func NewChecker(doc *xmldb.Document) *Checker {
	labels := doc.Labels()
	ids := make(map[string]int32, len(labels))
	for i, l := range labels {
		ids[l] = int32(i)
	}
	return &Checker{
		doc:      doc,
		labelIDs: ids,
		cache:    make(map[memoKey]int),
	}
}

// LabelID returns the checker's dense id for a document label, or -1
// when the label does not occur in the document. Resolving the id once
// and passing it to MLCADepthByID and RelatedCandidates keeps string
// hashing out of per-tuple loops.
func (c *Checker) LabelID(label string) int32 {
	if id, ok := c.labelIDs[label]; ok {
		return id
	}
	return -1
}

// labelName returns the label for a valid dense id.
func (c *Checker) labelName(lid int32) string { return c.doc.Labels()[lid] }

// FlushStats publishes any locally-batched cache hit/miss counts that have
// not yet reached the statsFlush threshold. Without it, a Checker
// abandoned below the threshold (a short-lived engine, a document
// reload) silently drops its pending counts and the process-wide mqf
// cache telemetry under-reports. Engine teardown and document replacement
// call it; it is safe to call at any time and from any goroutine.
func (c *Checker) FlushStats() {
	c.mu.Lock()
	h, m := c.hits, c.misses
	c.hits, c.misses = 0, 0
	c.mu.Unlock()
	cacheHits.Add(h)
	cacheMisses.Add(m)
}

// MLCADepth returns the depth of the deepest ancestor-or-self of n whose
// subtree contains a node labelled label other than n itself, or -1 when no
// such ancestor exists (label absent from the document).
func (c *Checker) MLCADepth(n *xmldb.Node, label string) int {
	lid := c.LabelID(label)
	if lid < 0 {
		return -1
	}
	return c.MLCADepthByID(n, lid)
}

// MLCADepthByID is MLCADepth with a pre-resolved label id (see LabelID);
// lid must be valid.
func (c *Checker) MLCADepthByID(n *xmldb.Node, lid int32) int {
	key := memoKey{int32(n.Pre), lid}
	c.mu.Lock()
	d, ok := c.cache[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	if c.hits+c.misses >= statsFlush {
		cacheHits.Add(c.hits)
		cacheMisses.Add(c.misses)
		c.hits, c.misses = 0, 0
	}
	c.mu.Unlock()
	if ok {
		return d
	}
	// Compute outside the lock — the document is immutable and a racing
	// duplicate computation writes the same value.
	depth := mlcaDepthIndexed(c.doc, n, c.labelName(lid))
	c.mu.Lock()
	c.cache[key] = depth
	c.mu.Unlock()
	return depth
}

// mlcaDepthIndexed computes the MLCA depth from the Pre-sorted label
// index: the deepest common ancestor n forms with any member of a label
// stream is always formed with one of its two document-order neighbors in
// that stream (the LCA of a pre-order range equals the LCA of its
// endpoints, so moving further away in document order can only raise the
// meeting point). One binary search plus two O(depth) ancestor walks
// replace the per-ancestor subtree scans of the naive computation.
func mlcaDepthIndexed(doc *xmldb.Document, n *xmldb.Node, label string) int {
	before, after := doc.LabelNeighbors(label, n.Pre)
	depth := -1
	if before != nil {
		if d := lcaDepth(n, before); d > depth {
			depth = d
		}
	}
	if after != nil {
		if d := lcaDepth(n, after); d > depth {
			depth = d
		}
	}
	return depth
}

// lcaDepth returns the depth of the lowest common ancestor of a and b
// (-1 when they share no ancestor, which cannot happen within one
// document).
func lcaDepth(a, b *xmldb.Node) int {
	for !a.IsAncestorOrSelf(b) {
		a = a.Parent
		if a == nil {
			return -1
		}
	}
	return a.Depth
}

// Related reports whether u and v are meaningfully related: their LCA is a
// mutually-nearest meeting point for their labels. Two distinct nodes with
// the same label are never meaningfully related directly (they are peers,
// not partners); a node is trivially related to itself.
func (c *Checker) Related(u, v *xmldb.Node) bool {
	if u == v {
		return true
	}
	if u.Label == v.Label {
		return false
	}
	l := xmldb.LCA(u, v)
	if l == nil {
		return false
	}
	// One node being the ancestor of the other is always meaningful
	// (e.g. movie and its title).
	if l == u || l == v {
		return true
	}
	// A pairing that only meets at the top of a large collection is not
	// meaningful: when neither side has any closer partner, mutual
	// nearness would otherwise relate an editor-only book to every
	// article author in the corpus just because both reach the root.
	if c.isCollectionTop(l) {
		return false
	}
	return l.Depth == c.MLCADepth(u, v.Label) && l.Depth == c.MLCADepth(v, u.Label)
}

// isCollectionTop reports whether a node is the document node or a
// collection container at the top of the document (the root element of a
// corpus holding many sibling entries).
func (c *Checker) isCollectionTop(l *xmldb.Node) bool {
	if l.Kind == xmldb.DocumentNode {
		return true
	}
	if l.Parent == nil || l.Parent.Kind != xmldb.DocumentNode {
		return false
	}
	elems := 0
	for _, ch := range l.Children {
		if ch.Kind == xmldb.ElementNode {
			elems++
			if elems > 3 {
				return true
			}
		}
	}
	return false
}

// RelatedAllCounted reports whether every pair in nodes is meaningfully
// related, plus the number of pairs examined before the verdict (the
// check short-circuits on the first unrelated pair), feeding the
// mqf_pairs_checked telemetry. This is the predicate semantics of
// mqf($v1, $v2, ...) in a where clause: the bound combination survives
// iff the nodes form a meaningful group. mqf of fewer than two nodes is
// trivially true.
func (c *Checker) RelatedAllCounted(nodes []*xmldb.Node) (bool, int64) {
	var pairs int64
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			pairs++
			if !c.Related(nodes[i], nodes[j]) {
				pairsChecked.Add(pairs)
				relatedChecks.Add(pairs)
				return false, pairs
			}
		}
	}
	pairsChecked.Add(pairs)
	relatedChecks.Add(pairs)
	return true, pairs
}

// RelatedCandidates returns the nodes with label id lid (see LabelID)
// that are meaningfully related to u, in document (Pre) order; nil when
// lid is -1, the id of an absent label. This is the candidate generator
// of the structural strategy in the XQuery planner: instead of scanning
// every label node and filtering, candidates come from the subtree of
// the deepest ancestor of u that contains the label at all. It memoizes
// nothing beyond the checker's depth memo; the caller owns the result.
func (c *Checker) RelatedCandidates(u *xmldb.Node, lid int32) []*xmldb.Node {
	if lid < 0 {
		return nil
	}
	label := c.labelName(lid)
	if u.Label == label {
		return []*xmldb.Node{u}
	}
	d := c.MLCADepthByID(u, lid)
	if d < 0 {
		return nil
	}
	w := u.AncestorAtDepth(d)
	if w == nil {
		return nil
	}
	var out []*xmldb.Node
	// Ancestors of u at or above the window root (including w itself) are
	// always meaningfully related but never appear in the window scan
	// below — the window holds only w's proper descendants. Emit them
	// first, top-down: every such ancestor is an ancestor-or-self of w,
	// so it precedes w's subtree in document order and the result stays
	// Pre-sorted (callers hand it straight back as a for-clause binding
	// sequence, where order is observable).
	var anc []*xmldb.Node
	for p := u.Parent; p != nil; p = p.Parent {
		if p.Depth > w.Depth {
			continue
		}
		if p.Label == label {
			anc = append(anc, p)
		}
	}
	for i := len(anc) - 1; i >= 0; i-- {
		out = append(out, anc[i])
	}
	// A window rooted at a collection top holds no further candidate, so
	// it is not scanned. Every other label node m in w's subtree meets u
	// exactly at w, and Related rejects meetings at a collection top:
	//   - u has no label descendants, or w would be u;
	//   - u has no label ancestors below w, or w would be deeper;
	//   - so m is neither an ancestor nor a descendant of u, and LCA(u, m)
	//     lies in w's subtree yet no deeper than w, the deepest meeting
	//     point u forms with the label.
	// Without this, each editor-only book scans every author under the
	// corpus root.
	if w != u && c.isCollectionTop(w) {
		return out
	}
	var checks int64
	for _, cand := range c.doc.Descendants(w, label) {
		checks++
		if c.Related(u, cand) {
			out = append(out, cand)
		}
	}
	relatedChecks.Add(checks)
	return out
}
