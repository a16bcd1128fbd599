package xquery

import (
	"reflect"
	"strings"
	"testing"

	"nalix/internal/dataset"
	"nalix/internal/obs"
	"nalix/internal/xmldb"
)

// plannerSettings enumerates every planner configuration the parity tests
// compare: results must be byte-identical under all of them.
func plannerSettings() []struct {
	name    string
	disable bool
	force   string
} {
	return []struct {
		name    string
		disable bool
		force   string
	}{
		{"planner-off", true, ""},
		{"auto", false, ""},
		{"force-scan", false, StrategyScan},
		{"force-equality", false, StrategyEquality},
		{"force-structural", false, StrategyStructural},
	}
}

// TestStrategyParity runs representative queries under every planner
// setting and requires byte-identical serialized results: a forced
// strategy whose preconditions fail must degrade, never change answers.
func TestStrategyParity(t *testing.T) {
	queries := []string{
		`for $b in doc("bib.xml")//book, $t in doc("bib.xml")//title
		 where mqf($b, $t) return $t`,
		`for $y in doc("bib.xml")//year, $t in doc("bib.xml")//title, $p in doc("bib.xml")//publisher
		 where mqf($y, $t, $p) and $p = "Addison-Wesley" return ($y, $t)`,
		`for $m in doc("movies.xml")//movie, $d in doc("movies.xml")//director
		 where mqf($m, $d) and $d = "Ron Howard" return $m/title`,
		`for $t in doc("movies.xml")//title order by $t return $t`,
	}
	for qi, q := range queries {
		var want []string
		for _, s := range plannerSettings() {
			e := newTestEngine(t)
			e.DisablePlanner = s.disable
			e.ForceStrategy = s.force
			got := values(runQuery(t, e, q))
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("query %d under %s: results diverge\ngot:  %q\nwant: %q",
					qi, s.name, got, want)
			}
		}
	}
}

// TestPlannerResultsInDocumentOrder checks the document-order guarantee
// end to end: when clause reordering and structural domains rearrange the
// binding search, the result sequence must still come back in document
// order — which in turn depends on mqf.RelatedCandidates returning
// Pre-sorted streams.
func TestPlannerResultsInDocumentOrder(t *testing.T) {
	q := `for $y in doc("bib.xml")//year, $t in doc("bib.xml")//title, $p in doc("bib.xml")//publisher
	      where mqf($y, $t, $p) and $p = "Addison-Wesley" return $t`
	for _, s := range plannerSettings() {
		e := newTestEngine(t)
		e.DisablePlanner = s.disable
		e.ForceStrategy = s.force
		res := runQuery(t, e, q)
		if len(res) == 0 {
			t.Fatalf("%s: no results", s.name)
		}
		last := -1
		for i, it := range res {
			ni, ok := it.(NodeItem)
			if !ok {
				t.Fatalf("%s: result %d is not a node", s.name, i)
			}
			if ni.Node.Pre <= last {
				t.Errorf("%s: results out of document order at %d: Pre %d after %d",
					s.name, i, ni.Node.Pre, last)
			}
			last = ni.Node.Pre
		}
	}
}

// TestMultiConjunctIntersection pins the fix for the first-conjunct bug:
// a variable joined by mqf to several earlier variables through separate
// conjuncts must have its domain intersected across all of them, not just
// the first. The plan must list both partners, and the results must match
// the planner-off evaluation exactly.
func TestMultiConjunctIntersection(t *testing.T) {
	q := `for $y in doc("movies.xml")//year, $d in doc("movies.xml")//director, $t in doc("movies.xml")//title
	      where mqf($y, $d) and mqf($y, $t) and mqf($d, $t)
	      return ($d, $t)`

	e := newTestEngine(t)
	e.ForceStrategy = StrategyStructural // test labels sit below the cardinality cutoff
	expr, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.ExplainPlan(expr)
	if rep == nil {
		t.Fatal("ExplainPlan returned nil for a FLWOR")
	}
	var title *PlanInfo
	for i := range rep.Clauses {
		if rep.Clauses[i].Var == "t" {
			title = &rep.Clauses[i]
		}
	}
	if title == nil {
		t.Fatalf("no plan entry for $t: %+v", rep.Clauses)
	}
	if title.Strategy != StrategyStructural {
		t.Fatalf("$t strategy = %s, want structural", title.Strategy)
	}
	if strings.Join(title.Partners, ",") != "y,d" {
		t.Errorf("$t partners = %v, want [y d]: domains must intersect across all mqf conjuncts", title.Partners)
	}

	got := values(runQuery(t, e, q))
	ref := newTestEngine(t)
	ref.DisablePlanner = true
	want := values(runQuery(t, ref, q))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-conjunct results diverge from planner-off evaluation\ngot:  %q\nwant: %q", got, want)
	}
	if len(want) == 0 {
		t.Error("reference evaluation returned no results; test exercises nothing")
	}
}

// TestProgramsCompiledOncePerEvaluation evaluates the translation of
// "Return the earliest year for each author.": its nested FLWOR runs once
// per outer author, but one evaluation compiles each of the two FLWORs
// once, at every corpus size. The plan span of the eval trace counts the
// programs compiled.
func TestProgramsCompiledOncePerEvaluation(t *testing.T) {
	const q = `for $v2 in doc("dblp.xml")//author
	           let $vars1 := { for $v3 in doc("dblp.xml")//author, $v1 in doc("dblp.xml")//year
	                           where mqf($v3, $v1) and $v3 = $v2 return $v1 }
	           return min($vars1)`
	expr, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{500, 1000} {
		e := NewEngine()
		e.AddDocument(dataset.GenerateEntries(n, 2*n))
		tr := obs.NewTrace("eval")
		if _, err := e.EvalTraced(expr, tr.Root()); err != nil {
			t.Fatal(err)
		}
		programs := ""
		for _, ch := range tr.Root().Children() {
			for _, a := range ch.Attrs() {
				if ch.Name() == "plan" && a.Key == "programs" {
					programs = a.Value
				}
			}
		}
		if programs != "2" {
			t.Errorf("GenerateEntries(%d, %d): one evaluation compiled %q programs, want 2", n, 2*n, programs)
		}
	}
}

// TestProgramCacheInvalidation checks that replacing a document drops
// everything derived from it: a stale program or memoized label scan
// would answer from the old document's domains.
func TestProgramCacheInvalidation(t *testing.T) {
	e := newTestEngine(t)
	eq, err := Parse(`for $t in doc("movies.xml")//title where $t = "Traffic" return $t`)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := Parse(`for $t in doc("movies.xml")//title return $t`)
	if err != nil {
		t.Fatal(err)
	}
	count := func(expr Expr) int {
		t.Helper()
		seq, err := e.Eval(expr)
		if err != nil {
			t.Fatal(err)
		}
		return len(seq)
	}
	if n := count(eq); n != 1 {
		t.Fatalf("first eval: %d results, want 1", n)
	}
	before := count(scan)
	repl := `<movies><movie><title>Traffic</title></movie><movie><title>Traffic</title></movie></movies>`
	doc, err := xmldb.ParseString("movies.xml", repl)
	if err != nil {
		t.Fatal(err)
	}
	e.AddDocument(doc)
	if n := count(eq); n != 2 {
		t.Errorf("after document replacement: %d results, want 2 (stale equality domain?)", n)
	}
	if n := count(scan); n != 2 {
		t.Errorf("after document replacement: the title scan has %d results (%d before), want 2 (stale memo?)", n, before)
	}
}
