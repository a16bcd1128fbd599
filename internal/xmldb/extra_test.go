package xmldb

import (
	"errors"
	"strings"
	"testing"
)

func TestNodeKindString(t *testing.T) {
	cases := map[NodeKind]string{
		DocumentNode:  "document",
		ElementNode:   "element",
		AttributeNode: "attribute",
		TextNode:      "text",
		NodeKind(99):  "NodeKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestNormalizeValue(t *testing.T) {
	cases := map[string]string{
		"  Hello  ": "hello",
		"1994":      "1994",
		"1994.0":    "1994",
		"01994":     "1994",
		"3.50":      "3.5",
		"abc":       "abc",
	}
	for in, want := range cases {
		if got := NormalizeValue(in); got != want {
			t.Errorf("NormalizeValue(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNodesByLabelValue(t *testing.T) {
	d := mustParse(t, "b.xml", `<bib>
	  <book><year>1994</year></book>
	  <book><year>1994.0</year></book>
	  <book><year>2000</year></book>
	</bib>`)
	if got := len(d.NodesByLabelValue("year", "1994")); got != 2 {
		t.Errorf("year=1994 → %d nodes, want 2 (numeric normalization)", got)
	}
	if got := len(d.NodesByLabelValue("year", "1999")); got != 0 {
		t.Errorf("year=1999 → %d, want 0", got)
	}
	if got := len(d.NodesByLabelValue("missing", "x")); got != 0 {
		t.Errorf("missing label → %d, want 0", got)
	}
}

func TestNodesWithValueIndexStable(t *testing.T) {
	d := mustParse(t, "c.xml", `<r><x>A</x><x>a</x><y>b</y></r>`)
	first := d.NodesWithValue("a")
	second := d.NodesWithValue("A")
	if len(first) != 2 || len(second) != 2 {
		t.Errorf("case-insensitive index: %d, %d, want 2, 2", len(first), len(second))
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestSerializeWriteErrors(t *testing.T) {
	d := mustParse(t, "m.xml", `<a b="c"><d>text</d><e/></a>`)
	if err := Serialize(&failWriter{n: 0}, d.RootElement()); err == nil {
		t.Fatal("zero budget: expected write error")
	}
	// Fail at several byte offsets so every write site is exercised. A
	// budget that runs out exactly on the final write reports no error
	// (the writer over-accepts the last chunk), so only most budgets
	// must fail.
	failures := 0
	for n := 0; n < 24; n++ {
		if Serialize(&failWriter{n: n}, d.RootElement()) != nil {
			failures++
		}
	}
	if failures < 20 {
		t.Errorf("only %d/24 truncated budgets errored", failures)
	}
	// A large budget succeeds.
	if err := Serialize(&failWriter{n: 1 << 20}, d.RootElement()); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSerializeSelfClosing(t *testing.T) {
	d := mustParse(t, "s.xml", `<a><empty/><alsoempty></alsoempty></a>`)
	s := SerializeString(d.RootElement())
	if strings.Count(s, "<empty/>") != 1 || strings.Count(s, "<alsoempty/>") != 1 {
		t.Errorf("self-closing serialization: %s", s)
	}
}

func TestSerializeAttributeNodeStandalone(t *testing.T) {
	d := mustParse(t, "s.xml", `<a year="1994"/>`)
	y := d.NodesByLabel("year")[0]
	if got := SerializeString(y); got != "<year>1994</year>" {
		t.Errorf("attribute serialization = %q", got)
	}
}

func TestSerializeDocumentNode(t *testing.T) {
	d := mustParse(t, "s.xml", `<a><b>x</b></a>`)
	if got := SerializeString(d.Root); got != "<a><b>x</b></a>" {
		t.Errorf("document node serialization = %q", got)
	}
}

func TestBuilderOverClose(t *testing.T) {
	b := NewBuilder("x.xml")
	b.Open("a").Close().Close().Close() // extra closes are no-ops
	d := b.Document()
	if d.RootElement().Label != "a" {
		t.Errorf("root = %v", d.RootElement())
	}
}

func TestDescendantsOfLeaf(t *testing.T) {
	d := mustParse(t, "l.xml", `<a><b>x</b><b>y</b></a>`)
	b0 := d.NodesByLabel("b")[0]
	if got := d.Descendants(b0, "b"); len(got) != 0 {
		t.Errorf("descendants of leaf = %d", len(got))
	}
}

func TestLabels(t *testing.T) {
	d := mustParse(t, "l.xml", `<a x="1"><b/><c/></a>`)
	got := strings.Join(d.Labels(), ",")
	if got != "a,b,c,x" {
		t.Errorf("labels = %s", got)
	}
	if !d.HasLabel("x") || d.HasLabel("zzz") {
		t.Error("HasLabel wrong")
	}
}

func TestParseCDATAAndComments(t *testing.T) {
	d := mustParse(t, "c.xml", `<a><!-- a comment --><b><![CDATA[5 < 6 & "quoted"]]></b><?pi ignored?></a>`)
	b := d.NodesByLabel("b")[0]
	if got := b.Value(); got != `5 < 6 & "quoted"` {
		t.Errorf("CDATA value = %q", got)
	}
	// Comments and processing instructions contribute no nodes.
	for _, n := range d.Nodes() {
		if n.Kind == TextNode && strings.Contains(n.Data, "comment") {
			t.Error("comment leaked into text")
		}
	}
	// Round trip re-escapes the special characters.
	s := SerializeString(d.RootElement())
	if _, err := ParseString("rt", s); err != nil {
		t.Errorf("round trip failed: %v\n%s", err, s)
	}
}

func TestParseMixedContent(t *testing.T) {
	d := mustParse(t, "m.xml", `<p>before <em>middle</em> after</p>`)
	if got := d.RootElement().Value(); got != "before middle after" {
		t.Errorf("mixed content value = %q", got)
	}
}

func TestParseDeepNesting(t *testing.T) {
	var sb strings.Builder
	const depth = 200
	for i := 0; i < depth; i++ {
		sb.WriteString("<d>")
	}
	sb.WriteString("x")
	for i := 0; i < depth; i++ {
		sb.WriteString("</d>")
	}
	d := mustParse(t, "deep.xml", sb.String())
	if got := len(d.NodesByLabel("d")); got != depth {
		t.Errorf("deep elements = %d, want %d", got, depth)
	}
	inner := d.NodesByLabel("d")[depth-1]
	if inner.Depth != depth {
		t.Errorf("innermost depth = %d, want %d", inner.Depth, depth)
	}
}
