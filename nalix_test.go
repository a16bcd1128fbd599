package nalix

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

const bibXML = `
<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author>W. Stevens</author>
    <publisher>Addison-Wesley</publisher>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author>Dan Suciu</author>
    <publisher>Morgan Kaufmann Publishers</publisher>
  </book>
</bib>`

func newEngine(t testing.TB) *Engine {
	t.Helper()
	e := New()
	if err := e.LoadXMLString("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAskAccepted(t *testing.T) {
	e := newEngine(t)
	ans, err := e.Ask("", `Find the titles of books published by "Addison-Wesley".`)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Accepted {
		t.Fatalf("rejected: %v", ans.Feedback)
	}
	if len(ans.Results) != 1 || !strings.Contains(ans.Results[0], "TCP/IP Illustrated") {
		t.Errorf("results = %v", ans.Results)
	}
	if !strings.Contains(ans.XQuery, "mqf(") {
		t.Errorf("expected a schema-free translation:\n%s", ans.XQuery)
	}
	if ans.ParseTree == "" {
		t.Error("missing parse tree")
	}
	if len(ans.Values) == 0 || ans.Values[0] != "title=TCP/IP Illustrated" {
		t.Errorf("values = %v", ans.Values)
	}
}

func TestAskRejectedWithFeedback(t *testing.T) {
	e := newEngine(t)
	ans, err := e.Ask("", "Return every book as cheap as possible.")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Accepted {
		t.Fatalf("expected rejection, got %s", ans.XQuery)
	}
	if len(ans.Feedback) == 0 || !ans.Feedback[0].IsError {
		t.Errorf("feedback = %v", ans.Feedback)
	}
	if s := ans.Feedback[0].String(); !strings.HasPrefix(s, "[error]") {
		t.Errorf("feedback string = %q", s)
	}
}

func TestTranslateOnly(t *testing.T) {
	e := newEngine(t)
	ans, err := e.Translate("", "List all titles.")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Accepted || ans.XQuery == "" {
		t.Fatalf("translate failed: %v", ans.Feedback)
	}
	if len(ans.Results) != 0 {
		t.Error("Translate must not evaluate")
	}
}

func TestRawQuery(t *testing.T) {
	e := newEngine(t)
	ans, err := e.Query(`for $b in doc("bib.xml")//book where $b/year > 1995 return $b/title`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 1 || !strings.Contains(ans.Results[0], "Data on the Web") {
		t.Errorf("results = %v", ans.Results)
	}
}

func TestKeywordSearch(t *testing.T) {
	e := newEngine(t)
	hits, err := e.KeywordSearch("", `title "Suciu"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || !strings.Contains(hits[0], "Data on the Web") {
		t.Errorf("hits = %v", hits)
	}
}

func TestAddSynonyms(t *testing.T) {
	e := newEngine(t)
	e.AddSynonyms("publisher", "imprint")
	ans, err := e.Ask("", `Find the imprint of "Data on the Web".`)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Accepted {
		t.Fatalf("rejected: %v", ans.Feedback)
	}
	if len(ans.Values) != 1 || ans.Values[0] != "publisher=Morgan Kaufmann Publishers" {
		t.Errorf("values = %v", ans.Values)
	}
}

func TestMultipleDocuments(t *testing.T) {
	e := newEngine(t)
	if err := e.LoadXMLString("m.xml", `<ms><m><t>X</t></m></ms>`); err != nil {
		t.Fatal(err)
	}
	docs := e.Documents()
	if len(docs) != 2 || docs[0] != "bib.xml" {
		t.Errorf("documents = %v", docs)
	}
	if _, err := e.Ask("missing.xml", "List all titles."); err == nil {
		t.Error("expected error for unknown document")
	}
}

func TestLoadErrors(t *testing.T) {
	e := New()
	if err := e.LoadXMLString("bad.xml", "<a><b></a>"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := e.Ask("", "List all titles."); err == nil {
		t.Error("expected error with no documents loaded")
	}
}

// TestColdConcurrentAsk asks one question from four goroutines on a
// freshly loaded engine, so every first use of the document's indexes
// happens concurrently. Run with -race.
func TestColdConcurrentAsk(t *testing.T) {
	e := newEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, err := e.Ask("", `Find all books published by "Addison-Wesley" after 1991.`)
			if err == nil && (!ans.Accepted || len(ans.Results) != 1) {
				err = fmt.Errorf("accepted=%v results=%d, want one accepted result", ans.Accepted, len(ans.Results))
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
