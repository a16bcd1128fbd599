package mqf

import (
	"testing"

	"nalix/internal/xmldb"
)

// Review probe: is RelatedCandidates(u, L) == {n : n.Label==L && Related(u,n)}?
func TestReviewRelatedCandidatesComplete(t *testing.T) {
	doc, err := xmldb.ParseString("d", `<root><a><u><c/></u></a><x/><y/></root>`)
	if err != nil {
		t.Fatal(err)
	}
	// relabel: want X ancestor of u above window, X descendant of u
	c := NewChecker(doc)
	_ = c
	for _, n := range doc.Nodes() {
		t.Logf("node %s pre=%d depth=%d kind=%v", n.Label, n.Pre, n.Depth, n.Kind)
	}
}

func TestReviewCandidatesVsReference(t *testing.T) {
	// a(label=X) > u(label=Y) > c(label=X); root has extra children so it's not suspicious
	doc, err := xmldb.ParseString("d", `<root><X><Y><X/></Y></X><p/><q/></root>`)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(doc)
	var u *xmldb.Node
	for _, n := range doc.Nodes() {
		if n.Label == "Y" {
			u = n
		}
	}
	if u == nil {
		t.Fatal("no Y")
	}
	got := c.RelatedCandidates(u, c.LabelID("X"))
	var want []*xmldb.Node
	for _, n := range doc.NodesByLabel("X") {
		if c.Related(u, n) {
			want = append(want, n)
		}
	}
	t.Logf("got %d candidates, reference %d", len(got), len(want))
	for _, n := range got {
		t.Logf("  got: pre=%d depth=%d", n.Pre, n.Depth)
	}
	for _, n := range want {
		t.Logf("  want: pre=%d depth=%d", n.Pre, n.Depth)
	}
	if len(got) != len(want) {
		t.Errorf("RelatedCandidates incomplete: got %d want %d", len(got), len(want))
	}
}

// TestReviewCandidatesVsReferenceRandom holds RelatedCandidates to the
// quadratic reference {m : Related(u, m)}, node for node and in Pre
// order, on seeded documents whose roots are often collection tops.
func TestReviewCandidatesVsReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		doc := randomDoc(seed)
		c := NewChecker(doc)
		for _, n := range doc.Nodes() {
			if n.Kind != xmldb.ElementNode {
				continue
			}
			for _, label := range doc.Labels() {
				got := c.RelatedCandidates(n, c.LabelID(label))
				var want []*xmldb.Node
				for _, m := range doc.NodesByLabel(label) {
					if c.Related(n, m) {
						want = append(want, m)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d node %s#%d label %q: got %d candidates want %d", seed, n.Label, n.Pre, label, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d node %s#%d label %q: candidate %d is Pre %d, want Pre %d", seed, n.Label, n.Pre, label, i, got[i].Pre, want[i].Pre)
					}
				}
			}
		}
	}
}
