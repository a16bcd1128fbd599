package xmldb

import (
	"fmt"
	"testing"
)

func valueIndexDoc(tb testing.TB, entries int) *Document {
	tb.Helper()
	b := NewBuilder("vi.xml")
	b.Open("bib")
	for i := 0; i < entries; i++ {
		b.Open("book", "year", fmt.Sprintf("%d", 1990+i%20))
		b.Leaf("title", fmt.Sprintf("Title %d", i))
		b.Leaf("author", fmt.Sprintf("Author %d", i%97))
		b.Close()
	}
	b.Close()
	return b.Document()
}

func TestNodesByLabelValueMissPath(t *testing.T) {
	d := valueIndexDoc(t, 50)

	if got := d.NodesByLabelValue("no-such-label", "whatever"); got != nil {
		t.Fatalf("absent label: got %d nodes, want nil", len(got))
	}
	// Repeated misses must not allocate: the planner probes the index
	// once per equality-pushdown domain.
	allocs := testing.AllocsPerRun(100, func() {
		if d.NodesByLabelValue("no-such-label", "whatever") != nil {
			t.Fatal("absent label returned nodes")
		}
	})
	if allocs != 0 {
		t.Fatalf("miss-path probe allocates %.1f times per call, want 0", allocs)
	}

	if got := d.NodesByLabelValue("author", "Author 7"); len(got) == 0 {
		t.Fatal("present label/value returned no nodes")
	}
	// A value miss under a present (already indexed) label is also free.
	allocs = testing.AllocsPerRun(100, func() {
		if d.NodesByLabelValue("author", "somebody else") != nil {
			t.Fatal("absent value returned nodes")
		}
	})
	if allocs != 0 {
		t.Fatalf("indexed-label value miss allocates %.1f times per call, want 0", allocs)
	}
}

// TestValueIndexesBuiltWithDocument checks that a finished document's
// value indexes are complete: every probe, hit or miss, by label or
// document-wide, is a pure read, and each answers exactly what a scan of
// the label stream would.
func TestValueIndexesBuiltWithDocument(t *testing.T) {
	d := valueIndexDoc(t, 50)
	allocs := testing.AllocsPerRun(100, func() {
		d.NodesByLabelValue("author", "author 7")
		d.NodesByLabelValue("author", "somebody else")
		d.NodesByLabelValue("no-such-label", "x")
		d.NodesWithValue("title 3")
		d.NodesWithValue("absent value")
	})
	if allocs != 0 {
		t.Fatalf("value-index probes allocate %.1f times per call, want 0", allocs)
	}
	for _, c := range []struct{ label, value string }{
		{"author", "Author 7"}, {"title", "Title 3"}, {"year", "1994"},
	} {
		var want []*Node
		for _, n := range d.NodesByLabel(c.label) {
			if NormalizeValue(n.Value()) == NormalizeValue(c.value) {
				want = append(want, n)
			}
		}
		got := d.NodesByLabelValue(c.label, c.value)
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("%s=%s: index returned %d nodes, scan %d", c.label, c.value, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s=%s: node %d differs (Pre %d vs %d)", c.label, c.value, i, got[i].Pre, want[i].Pre)
			}
		}
	}
}

// BenchmarkNodesByLabelValue guards the index-probe cost on the three
// paths the planner's equality pushdown exercises: a hit, a value miss
// under an indexed label, and a probe for an absent label.
func BenchmarkNodesByLabelValue(b *testing.B) {
	d := valueIndexDoc(b, 2000)
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(d.NodesByLabelValue("author", "author 13")) == 0 {
				b.Fatal("expected nodes")
			}
		}
	})
	b.Run("value-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d.NodesByLabelValue("author", "somebody else") != nil {
				b.Fatal("unexpected nodes")
			}
		}
	})
	b.Run("label-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d.NodesByLabelValue("no-such-label", "x") != nil {
				b.Fatal("unexpected nodes")
			}
		}
	})
}
