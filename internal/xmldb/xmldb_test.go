package xmldb

import (
	"strings"
	"testing"
	"testing/quick"
)

const moviesXML = `
<movies>
  <year>
    <movie><title>How the Grinch Stole Christmas</title><director>Ron Howard</director></movie>
    <movie><title>Traffic</title><director>Steven Soderbergh</director></movie>
    2000
  </year>
  <year>
    <movie><title>A Beautiful Mind</title><director>Ron Howard</director></movie>
    <movie><title>Tribute</title><director>Steven Soderbergh</director></movie>
    <movie><title>The Lord of the Rings</title><director>Peter Jackson</director></movie>
    2001
  </year>
</movies>`

func mustParse(t testing.TB, name, s string) *Document {
	t.Helper()
	d, err := ParseString(name, s)
	if err != nil {
		t.Fatalf("ParseString(%s): %v", name, err)
	}
	return d
}

func TestParseBasicShape(t *testing.T) {
	d := mustParse(t, "movies.xml", moviesXML)
	if got := d.RootElement().Label; got != "movies" {
		t.Fatalf("root element = %q, want movies", got)
	}
	if got := len(d.NodesByLabel("movie")); got != 5 {
		t.Errorf("movie count = %d, want 5", got)
	}
	if got := len(d.NodesByLabel("director")); got != 5 {
		t.Errorf("director count = %d, want 5", got)
	}
	if got := len(d.NodesByLabel("year")); got != 2 {
		t.Errorf("year count = %d, want 2", got)
	}
}

func TestParseAttributes(t *testing.T) {
	d := mustParse(t, "a.xml", `<bib><book year="1994" id="b1"><title>T</title></book></bib>`)
	years := d.NodesByLabel("year")
	if len(years) != 1 {
		t.Fatalf("year nodes = %d, want 1", len(years))
	}
	if years[0].Kind != AttributeNode {
		t.Errorf("year kind = %v, want attribute", years[0].Kind)
	}
	if years[0].Value() != "1994" {
		t.Errorf("year value = %q, want 1994", years[0].Value())
	}
	if years[0].Parent.Label != "book" {
		t.Errorf("year parent = %q, want book", years[0].Parent.Label)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, xml string }{
		{"unbalanced", `<a><b></a>`},
		{"empty", ``},
		{"truncated", `<a><b>`},
		{"garbage", `not xml at all <<<<`},
	}
	for _, c := range cases {
		if _, err := ParseString(c.name, c.xml); err == nil {
			t.Errorf("%s: expected parse error, got nil", c.name)
		}
	}
}

func TestElementValueConcatenation(t *testing.T) {
	d := mustParse(t, "v.xml", `<a><b>hello </b><c>world</c></a>`)
	if got := d.RootElement().Value(); got != "hello world" {
		t.Errorf("value = %q, want %q", got, "hello world")
	}
}

func TestAncestorshipAndLCA(t *testing.T) {
	d := mustParse(t, "movies.xml", moviesXML)
	movies := d.NodesByLabel("movie")
	titles := d.NodesByLabel("title")
	directors := d.NodesByLabel("director")
	years := d.NodesByLabel("year")

	if !movies[0].IsAncestorOf(titles[0]) {
		t.Error("movie[0] should be ancestor of title[0]")
	}
	if movies[0].IsAncestorOf(titles[1]) {
		t.Error("movie[0] should not be ancestor of title[1]")
	}
	if titles[0].IsAncestorOf(movies[0]) {
		t.Error("title[0] should not be ancestor of movie[0]")
	}
	if !movies[0].IsAncestorOrSelf(movies[0]) {
		t.Error("node should be ancestor-or-self of itself")
	}

	if got := LCA(titles[0], directors[0]); got != movies[0] {
		t.Errorf("LCA(title0, director0) = %v, want movie[0]", got)
	}
	if got := LCA(titles[0], directors[1]); got != years[0] {
		t.Errorf("LCA(title0, director1) = %v, want year[0]", got)
	}
	if got := LCA(titles[0], titles[4]); got.Label != "movies" {
		t.Errorf("LCA across years = %q, want movies", got.Label)
	}
	if got := LCA(movies[0], movies[0]); got != movies[0] {
		t.Errorf("LCA(x,x) = %v, want x", got)
	}
}

func TestDescendantsWindow(t *testing.T) {
	d := mustParse(t, "movies.xml", moviesXML)
	years := d.NodesByLabel("year")
	if got := len(d.Descendants(years[0], "movie")); got != 2 {
		t.Errorf("movies under year[0] = %d, want 2", got)
	}
	if got := len(d.Descendants(years[1], "movie")); got != 3 {
		t.Errorf("movies under year[1] = %d, want 3", got)
	}
	if got := len(d.Descendants(d.Root, "movie")); got != 5 {
		t.Errorf("movies under document = %d, want 5", got)
	}
	movies := d.NodesByLabel("movie")
	if got := len(d.Descendants(movies[0], "movie")); got != 0 {
		t.Errorf("movies under a movie = %d, want 0", got)
	}
}

func TestNodesWithValue(t *testing.T) {
	d := mustParse(t, "movies.xml", moviesXML)
	got := d.NodesWithValue("Ron Howard")
	if len(got) != 2 {
		t.Fatalf("nodes with value 'Ron Howard' = %d, want 2", len(got))
	}
	for _, n := range got {
		if n.Label != "director" {
			t.Errorf("matched label %q, want director", n.Label)
		}
	}
	if got := d.NodesWithValue("ron howard"); len(got) != 2 {
		t.Errorf("case-insensitive match = %d, want 2", len(got))
	}
	if got := d.NodesContainingValue("Lord"); len(got) < 1 {
		t.Errorf("containing 'Lord' = %d, want >=1", len(got))
	}
}

func TestBuilderMatchesParser(t *testing.T) {
	b := NewBuilder("b.xml")
	b.Open("bib")
	b.Open("book", "year", "1994")
	b.Leaf("title", "TCP/IP Illustrated")
	b.Leaf("author", "W. Stevens")
	b.Close()
	b.Close()
	built := b.Document()

	parsed := mustParse(t, "b.xml", `<bib><book year="1994"><title>TCP/IP Illustrated</title><author>W. Stevens</author></book></bib>`)
	if gs, ps := SerializeString(built.RootElement()), SerializeString(parsed.RootElement()); gs != ps {
		t.Errorf("builder output differs:\n built=%s\nparsed=%s", gs, ps)
	}
	if built.Size() != parsed.Size() {
		t.Errorf("size mismatch: built=%d parsed=%d", built.Size(), parsed.Size())
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	d := mustParse(t, "movies.xml", moviesXML)
	s := SerializeString(d.RootElement())
	d2, err := ParseString("again", s)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if d.Size() != d2.Size() {
		t.Errorf("round-trip size mismatch: %d vs %d", d.Size(), d2.Size())
	}
	if s2 := SerializeString(d2.RootElement()); s2 != s {
		t.Errorf("serialization not stable:\n1=%s\n2=%s", s, s2)
	}
}

func TestSerializeEscaping(t *testing.T) {
	d := mustParse(t, "e.xml", `<a x="1&amp;2"><b>5 &lt; 6 &amp; 7 &gt; 2</b></a>`)
	s := SerializeString(d.RootElement())
	if strings.Contains(strings.ReplaceAll(strings.ReplaceAll(s, "&lt;", ""), "&gt;", ""), "5 < 6") {
		t.Errorf("unescaped text in %q", s)
	}
	if _, err := ParseString("re", s); err != nil {
		t.Errorf("escaped output does not reparse: %v\n%s", err, s)
	}
}

// TestPrePostInvariants property-checks the numbering scheme on generated
// trees: parent intervals contain child intervals, intervals of siblings are
// disjoint, and IsAncestorOf agrees with parent-chain walking.
func TestPrePostInvariants(t *testing.T) {
	build := func(shape []uint8) *Document {
		b := NewBuilder("gen.xml")
		b.Open("root")
		depth := 1
		for i, s := range shape {
			switch s % 3 {
			case 0:
				b.Open("e" + string(rune('a'+i%5)))
				depth++
			case 1:
				b.Text("t")
			case 2:
				if depth > 1 {
					b.Close()
					depth--
				}
			}
		}
		for depth > 0 {
			b.Close()
			depth--
		}
		return b.Document()
	}
	f := func(shape []uint8) bool {
		d := build(shape)
		nodes := d.Nodes()
		for _, n := range nodes {
			if n.Parent == nil {
				continue
			}
			if !(n.Parent.Pre < n.Pre && n.Pre <= n.Parent.Post) {
				return false
			}
		}
		// Cross-check IsAncestorOf against explicit parent chains for a
		// sample of pairs.
		for i := 0; i < len(nodes); i += 3 {
			for j := 0; j < len(nodes); j += 5 {
				a, b := nodes[i], nodes[j]
				chain := false
				for p := b.Parent; p != nil; p = p.Parent {
					if p == a {
						chain = true
						break
					}
				}
				if a.IsAncestorOf(b) != chain {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLCAProperty(t *testing.T) {
	d := mustParse(t, "movies.xml", moviesXML)
	nodes := d.Nodes()
	for _, a := range nodes {
		for _, b := range nodes {
			l := LCA(a, b)
			if l == nil {
				t.Fatalf("nil LCA for %d,%d", a.Pre, b.Pre)
			}
			if !l.IsAncestorOrSelf(a) || !l.IsAncestorOrSelf(b) {
				t.Fatalf("LCA(%d,%d)=%d not common ancestor", a.Pre, b.Pre, l.Pre)
			}
			// Lowest: no child of l is an ancestor-or-self of both.
			for _, c := range l.Children {
				if c.IsAncestorOrSelf(a) && c.IsAncestorOrSelf(b) {
					t.Fatalf("LCA(%d,%d)=%d not lowest (child %d works)", a.Pre, b.Pre, l.Pre, c.Pre)
				}
			}
			if LCA(b, a) != l {
				t.Fatalf("LCA not symmetric for %d,%d", a.Pre, b.Pre)
			}
		}
	}
}
