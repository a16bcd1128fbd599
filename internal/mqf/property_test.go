package mqf

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nalix/internal/xmldb"
)

// randomDoc builds a random two-level "collection of entries" document,
// the shape the meaningful-relatedness semantics are designed around:
// entries with randomly present fields, some nested.
func randomDoc(seed int64) *xmldb.Document {
	rng := rand.New(rand.NewSource(seed))
	b := xmldb.NewBuilder("rand.xml")
	b.Open("root")
	entries := 2 + rng.Intn(6)
	for i := 0; i < entries; i++ {
		kind := []string{"alpha", "beta"}[rng.Intn(2)]
		b.Open(kind)
		if rng.Intn(2) == 0 {
			b.Leaf("name", fmt.Sprintf("n%d", rng.Intn(4)))
		}
		for n := rng.Intn(3); n > 0; n-- {
			b.Leaf("tag", fmt.Sprintf("t%d", rng.Intn(4)))
		}
		if rng.Intn(3) == 0 {
			b.Open("nested")
			b.Leaf("leaf", fmt.Sprintf("l%d", rng.Intn(4)))
			b.Close()
		}
		b.Close()
	}
	b.Close()
	return b.Document()
}

// TestRelatedProperties property-checks the relatedness predicate on
// random documents: reflexivity, symmetry, and the consistency of
// RelatedCandidates with Related.
func TestRelatedProperties(t *testing.T) {
	f := func(seed int64) bool {
		doc := randomDoc(seed)
		c := NewChecker(doc)
		var elems []*xmldb.Node
		for _, n := range doc.Nodes() {
			if n.Kind == xmldb.ElementNode {
				elems = append(elems, n)
			}
		}
		for _, u := range elems {
			if !c.Related(u, u) {
				return false
			}
			for _, v := range elems {
				if c.Related(u, v) != c.Related(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRelatedCandidatesCompleteness checks that RelatedCandidates returns
// exactly the label nodes Related accepts, on random documents.
func TestRelatedCandidatesCompleteness(t *testing.T) {
	f := func(seed int64) bool {
		doc := randomDoc(seed)
		c := NewChecker(doc)
		labels := doc.Labels()
		for _, n := range doc.Nodes() {
			if n.Kind != xmldb.ElementNode {
				continue
			}
			for _, label := range labels {
				want := map[*xmldb.Node]bool{}
				for _, cand := range doc.NodesByLabel(label) {
					if c.Related(n, cand) {
						want[cand] = true
					}
				}
				got := c.RelatedCandidates(n, c.LabelID(label))
				if len(got) != len(want) {
					return false
				}
				for _, g := range got {
					if !want[g] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMLCADepthCache checks the memoized depth matches a recomputation
// through a fresh checker.
func TestMLCADepthCache(t *testing.T) {
	doc := randomDoc(7)
	a := NewChecker(doc)
	for _, n := range doc.Nodes() {
		if n.Kind != xmldb.ElementNode {
			continue
		}
		for _, l := range doc.Labels() {
			first := a.MLCADepth(n, l)
			second := a.MLCADepth(n, l) // cached
			fresh := NewChecker(doc).MLCADepth(n, l)
			if first != second || first != fresh {
				t.Fatalf("cache inconsistency for node %d label %s: %d %d %d",
					n.Pre, l, first, second, fresh)
			}
		}
	}
}
