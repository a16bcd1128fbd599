package mqf

import (
	"strings"
	"testing"

	"nalix/internal/xmldb"
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

// mixedXML reproduces the Section 2 scenario: the same title value exists
// both as a movie title and as a book title; only the movie one should be
// meaningfully related to a director.
const mixedXML = `
<library>
  <movies>
    <movie><title>Gone with the Wind</title><director>Victor Fleming</director></movie>
  </movies>
  <books>
    <book><title>Gone with the Wind</title><writer>Margaret Mitchell</writer></book>
  </books>
</library>`

func mustDoc(t testing.TB, name, s string) *xmldb.Document {
	t.Helper()
	d, err := xmldb.ParseString(name, s)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return d
}

func TestRelatedWithinMovie(t *testing.T) {
	d := mustDoc(t, "movies.xml", moviesXML)
	c := NewChecker(d)
	titles := d.NodesByLabel("title")
	directors := d.NodesByLabel("director")
	for i := range titles {
		for j := range directors {
			got := c.Related(titles[i], directors[j])
			want := i == j // documents list them pairwise per movie
			if got != want {
				t.Errorf("Related(title[%d], director[%d]) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestRelatedAncestor(t *testing.T) {
	d := mustDoc(t, "movies.xml", moviesXML)
	c := NewChecker(d)
	movies := d.NodesByLabel("movie")
	titles := d.NodesByLabel("title")
	if !c.Related(movies[0], titles[0]) {
		t.Error("movie should be related to its own title")
	}
	if c.Related(movies[0], titles[1]) {
		t.Error("movie should not be related to a sibling movie's title")
	}
	years := d.NodesByLabel("year")
	if !c.Related(years[0], movies[0]) {
		t.Error("year should be related to a movie under it")
	}
}

func TestRelatedSymmetricAndReflexive(t *testing.T) {
	d := mustDoc(t, "movies.xml", moviesXML)
	c := NewChecker(d)
	nodes := d.Nodes()
	for _, a := range nodes {
		if a.Kind != xmldb.ElementNode {
			continue
		}
		if !c.Related(a, a) {
			t.Fatalf("node %d not related to itself", a.Pre)
		}
		for _, b := range nodes {
			if b.Kind != xmldb.ElementNode {
				continue
			}
			if c.Related(a, b) != c.Related(b, a) {
				t.Fatalf("Related not symmetric for %d,%d", a.Pre, b.Pre)
			}
		}
	}
}

func TestSameLabelPeersUnrelated(t *testing.T) {
	d := mustDoc(t, "movies.xml", moviesXML)
	c := NewChecker(d)
	directors := d.NodesByLabel("director")
	if c.Related(directors[0], directors[1]) {
		t.Error("two distinct directors should not be meaningfully related")
	}
}

func TestSection2Disambiguation(t *testing.T) {
	d := mustDoc(t, "mixed.xml", mixedXML)
	c := NewChecker(d)
	titles := d.NodesByLabel("title") // [0]=movie title, [1]=book title
	directors := d.NodesByLabel("director")
	if !c.Related(titles[0], directors[0]) {
		t.Error("movie title should be related to director")
	}
	if c.Related(titles[1], directors[0]) {
		t.Error("book title should NOT be related to director")
	}
	got := c.RelatedCandidates(directors[0], c.LabelID("title"))
	if len(got) != 1 {
		t.Fatalf("RelatedCandidates(director, title) = %d nodes, want 1", len(got))
	}
	if got[0] != titles[0] {
		t.Errorf("picked wrong title (got value %q)", got[0].Value())
	}
	if focus := xmldb.LCA(directors[0], got[0]); focus.Label != "movie" {
		t.Errorf("focus label = %q, want movie", focus.Label)
	}
}

// TestSchemaInversion checks the paper's claim that the correct structural
// relationship is found whether director is under movie or movies are
// classified under directors.
func TestSchemaInversion(t *testing.T) {
	const inverted = `
<directors>
  <director>
    <name>Ron Howard</name>
    <movie><title>A Beautiful Mind</title></movie>
    <movie><title>How the Grinch Stole Christmas</title></movie>
  </director>
  <director>
    <name>Peter Jackson</name>
    <movie><title>The Lord of the Rings</title></movie>
  </director>
</directors>`
	d := mustDoc(t, "inv.xml", inverted)
	c := NewChecker(d)
	var got []string
	for _, n := range d.NodesByLabel("name") {
		for _, ti := range c.RelatedCandidates(n, c.LabelID("title")) {
			got = append(got, n.Value()+": "+ti.Value())
		}
	}
	want := "Ron Howard: A Beautiful Mind, Ron Howard: How the Grinch Stole Christmas, Peter Jackson: The Lord of the Rings"
	if strings.Join(got, ", ") != want {
		t.Errorf("related (name, title) pairs = %q, want %q", got, want)
	}
}

func TestRelatedAllTriples(t *testing.T) {
	d := mustDoc(t, "movies.xml", moviesXML)
	c := NewChecker(d)
	movies := d.NodesByLabel("movie")
	titles := d.NodesByLabel("title")
	directors := d.NodesByLabel("director")
	if ok, pairs := c.RelatedAllCounted([]*xmldb.Node{movies[2], titles[2], directors[2]}); !ok || pairs != 3 {
		t.Errorf("movie+its title+its director = (%v, %d pairs), want a meaningful triple after 3 pairs", ok, pairs)
	}
	if ok, _ := c.RelatedAllCounted([]*xmldb.Node{movies[2], titles[2], directors[3]}); ok {
		t.Error("mixed-movie triple should not be meaningful")
	}
	for _, nodes := range [][]*xmldb.Node{nil, {movies[0]}} {
		if ok, pairs := c.RelatedAllCounted(nodes); !ok || pairs != 0 {
			t.Errorf("mqf of %d nodes = (%v, %d pairs), want trivially true", len(nodes), ok, pairs)
		}
	}
}

// TestGroupsMissingLabel checks that a label absent from the document
// has id -1 and no related candidates.
func TestGroupsMissingLabel(t *testing.T) {
	d := mustDoc(t, "movies.xml", moviesXML)
	c := NewChecker(d)
	lid := c.LabelID("isbn")
	if lid != -1 {
		t.Fatalf("LabelID(isbn) = %d, want -1", lid)
	}
	if got := c.RelatedCandidates(d.NodesByLabel("director")[0], lid); got != nil {
		t.Errorf("RelatedCandidates with absent label = %v, want nil", got)
	}
}

func TestMLCADepth(t *testing.T) {
	d := mustDoc(t, "movies.xml", moviesXML)
	c := NewChecker(d)
	titles := d.NodesByLabel("title")
	movies := d.NodesByLabel("movie")
	if got, want := c.MLCADepth(titles[0], "director"), movies[0].Depth; got != want {
		t.Errorf("MLCADepth(title0, director) = %d, want %d", got, want)
	}
	if got := c.MLCADepth(titles[0], "isbn"); got != -1 {
		t.Errorf("MLCADepth absent label = %d, want -1", got)
	}
	// Cached second call must agree.
	if got, want := c.MLCADepth(titles[0], "director"), movies[0].Depth; got != want {
		t.Errorf("cached MLCADepth = %d, want %d", got, want)
	}
}
