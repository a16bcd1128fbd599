package fulltext

import (
	"reflect"
	"testing"
	"testing/quick"

	"nalix/internal/xmldb"
)

const docXML = `
<bib>
  <book>
    <title>Data on the Web: From Relations to Semistructured Data</title>
    <abstract>The Web has data. Semistructured data models the Web well.</abstract>
  </book>
  <book>
    <title>Web Data Management</title>
    <abstract>Managing data, on the web and elsewhere.</abstract>
  </book>
</bib>`

func newIndex(t testing.TB) (*Index, *xmldb.Document) {
	t.Helper()
	d, err := xmldb.ParseString("ft.xml", docXML)
	if err != nil {
		t.Fatal(err)
	}
	return NewIndex(d), d
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Data on the Web: From Relations!")
	want := []string{"data", "on", "the", "web", "from", "relations"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	if got := Tokenize("  ...  "); len(got) != 0 {
		t.Errorf("punctuation-only input = %v", got)
	}
}

func TestPhraseMatch(t *testing.T) {
	idx, d := newIndex(t)
	books := d.NodesByLabel("book")
	cases := []struct {
		phrase string
		want   []bool // per book
	}{
		{"data on the web", []bool{true, true}}, // title of book 1, abstract of book 2 ("data, on the web")
		{"web data management", []bool{false, true}},
		{"semistructured data", []bool{true, false}},
		{"relations to semistructured", []bool{true, false}},
		{"data web", []bool{false, false}},   // not consecutive
		{"the web has", []bool{true, false}}, // abstract of book 1
		{"DATA ON", []bool{true, true}},      // case-insensitive
		{"zzz", []bool{false, false}},
		{"", []bool{false, false}},
	}
	for _, c := range cases {
		for i, b := range books {
			if got := idx.Contains(b, c.phrase); got != c.want[i] {
				t.Errorf("Contains(book%d, %q) = %v, want %v", i, c.phrase, got, c.want[i])
			}
		}
	}
}

func TestPhraseDoesNotCrossLeaves(t *testing.T) {
	idx, d := newIndex(t)
	root := d.RootElement()
	// "semistructured data" ends the first title; "managing" begins the
	// second abstract — never consecutive within one leaf.
	if idx.Contains(root, "data managing") {
		t.Error("phrase crossed a leaf boundary")
	}
}

func TestRepeatedTermInLeaf(t *testing.T) {
	d, err := xmldb.ParseString("r.xml", `<r><x>go go go stop go</x></r>`)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewIndex(d)
	x := d.NodesByLabel("x")[0]
	if !idx.Contains(x, "go go go") {
		t.Error("triple phrase should match")
	}
	if !idx.Contains(x, "stop go") {
		t.Error("stop go should match")
	}
	if idx.Contains(x, "go stop go stop") {
		t.Error("impossible phrase matched")
	}
}

func TestAttributesIndexed(t *testing.T) {
	d, err := xmldb.ParseString("a.xml", `<r><e tag="quick brown fox"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewIndex(d)
	if !idx.Contains(d.RootElement(), "quick brown") {
		t.Error("attribute text not indexed")
	}
}

// TestContainsAgreesWithNaive property-checks the index against a naive
// token-scan implementation on random content.
func TestContainsAgreesWithNaive(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta"}
	f := func(content []uint8, q1, q2 uint8) bool {
		if len(content) == 0 || len(content) > 12 {
			return true
		}
		b := xmldb.NewBuilder("p.xml")
		b.Open("r")
		var text string
		for i, c := range content {
			if i > 0 {
				text += " "
			}
			text += words[int(c)%len(words)]
		}
		b.Leaf("x", text)
		b.Close()
		d := b.Document()
		idx := NewIndex(d)
		phrase := words[int(q1)%len(words)] + " " + words[int(q2)%len(words)]
		got := idx.Contains(d.RootElement(), phrase)

		// Naive check.
		toks := Tokenize(text)
		want := false
		for i := 0; i+1 < len(toks); i++ {
			if toks[i] == words[int(q1)%len(words)] && toks[i+1] == words[int(q2)%len(words)] {
				want = true
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestTermsCount(t *testing.T) {
	idx, _ := newIndex(t)
	if idx.Terms() == 0 {
		t.Error("no terms indexed")
	}
}
