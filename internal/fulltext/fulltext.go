// Package fulltext adds TeXQuery-style phrase matching to the query
// engine — the extension the paper names in its future work ("we intend
// to incorporate support for phrase matching by incorporating full-text
// techniques in XQuery such as TeXQuery"). It builds a positional
// inverted index over a document's leaf text and answers token-boundary
// phrase queries, which the XQuery engine exposes as ftcontains() and the
// NL front end as "contains the phrase ...".
package fulltext

import (
	"sort"
	"strings"
	"unicode"

	"nalix/internal/xmldb"
)

// posting locates one term occurrence: the leaf node and the token
// position within that leaf's text.
type posting struct {
	node *xmldb.Node
	pos  int
}

// Index is a positional inverted index over one document's leaf values.
type Index struct {
	doc      *xmldb.Document
	postings map[string][]posting // term → occurrences in document order
}

// NewIndex builds the index. Terms are lowercase alphanumeric runs; each
// leaf element and attribute is tokenized independently (phrases do not
// cross element boundaries, per full-text convention).
func NewIndex(doc *xmldb.Document) *Index {
	idx := &Index{doc: doc, postings: make(map[string][]posting)}
	for _, n := range doc.Nodes() {
		if n.Kind != xmldb.ElementNode && n.Kind != xmldb.AttributeNode {
			continue
		}
		if !isLeaf(n) {
			continue
		}
		for i, term := range Tokenize(n.Value()) {
			idx.postings[term] = append(idx.postings[term], posting{node: n, pos: i})
		}
	}
	return idx
}

func isLeaf(n *xmldb.Node) bool {
	for _, c := range n.Children {
		if c.Kind == xmldb.ElementNode {
			return false
		}
	}
	return true
}

// Tokenize splits text into lowercase terms (letter/digit runs).
func Tokenize(text string) []string {
	var terms []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			terms = append(terms, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return terms
}

// phraseAt checks the remaining terms follow consecutively in the same
// leaf.
func (idx *Index) phraseAt(start posting, rest []string) bool {
	for k, term := range rest {
		wantPos := start.pos + k + 1
		ps := idx.postings[term]
		// Postings are in document order; binary search the leaf's range
		// by node Pre then scan its positions.
		i := sort.Search(len(ps), func(i int) bool {
			if ps[i].node.Pre != start.node.Pre {
				return ps[i].node.Pre > start.node.Pre
			}
			return ps[i].pos >= wantPos
		})
		if i >= len(ps) || ps[i].node != start.node || ps[i].pos != wantPos {
			return false
		}
	}
	return true
}

// Contains reports whether the subtree rooted at n contains the phrase in
// any of its leaves.
func (idx *Index) Contains(n *xmldb.Node, phrase string) bool {
	terms := Tokenize(phrase)
	if len(terms) == 0 {
		return false
	}
	for _, p := range idx.postings[terms[0]] {
		if !n.IsAncestorOrSelf(p.node) {
			continue
		}
		if idx.phraseAt(p, terms[1:]) {
			return true
		}
	}
	return false
}

// Terms returns the number of distinct indexed terms (for diagnostics and
// tests).
func (idx *Index) Terms() int { return len(idx.postings) }
