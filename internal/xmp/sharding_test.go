package xmp

import (
	"os"
	"strings"
	"testing"
	"time"

	"nalix/internal/xmldb"
	"nalix/internal/xquery"
)

// TestCrossShardingParity runs the full XMP task suite through
// EvalSharded at 1, 4 and 16 windows and requires byte-identical answers
// to whole evaluation — the sharded twin of the cross-strategy parity
// test. Each window count starts from a cold engine, so the windows also
// compile the programs and fill the domain memos concurrently.
func TestCrossShardingParity(t *testing.T) {
	d := studyCorpus()
	full := xquery.NewEngine()
	full.AddDocument(d)
	for _, n := range []int{1, 4, 16} {
		eng := xquery.NewEngine()
		eng.AddDocument(d)
		for _, task := range Tasks() {
			expr, err := xquery.Parse(task.Gold)
			if err != nil {
				t.Fatalf("%s: parse: %v", task.ID, err)
			}
			want, err := full.Eval(expr)
			if err != nil {
				t.Fatalf("%s: unsharded eval: %v", task.ID, err)
			}
			got, err := eng.EvalSharded(expr, n, nil)
			if err != nil {
				t.Fatalf("%s: %d shards: %v", task.ID, n, err)
			}
			if strings.Join(xquery.FlattenValues(got), "\n") != strings.Join(xquery.FlattenValues(want), "\n") {
				t.Errorf("%s: %d shards: answers differ from whole evaluation\nwant %d values, got %d", task.ID, n, len(want), len(got))
			}
		}
	}
}

// scaleQueries are the queries of the scale smoke: three gold queries;
// the translations of "List the title and authors of every book." and
// "Find the title and year of books whose title contains "Data".", whose
// cold cost grew quadratically with the corpus until windows rooted at
// the collection top were skipped; and the translation of "List books
// where the number of authors is at least 2, including their title.", a
// correlated aggregate whose nested FLWOR runs once per outer binding.
var scaleQueries = []struct{ name, query string }{
	{"Q1", TaskByID("Q1").Gold},
	{"Q4", TaskByID("Q4").Gold},
	{"Q9", TaskByID("Q9").Gold},
	{"title and authors of every book", `for $v1 in doc("dblp.xml")//title, $v2 in doc("dblp.xml")//author, $v3 in doc("dblp.xml")//book
	    where mqf($v1, $v2, $v3) return ($v1, $v2)`},
	{"title and year of books whose title contains Data", `for $v1 in doc("dblp.xml")//title, $v2 in doc("dblp.xml")//year,
	    $v3 in doc("dblp.xml")//book, $v4 in doc("dblp.xml")//title
	    where mqf($v1, $v2, $v3, $v4) and contains($v4, "Data") return ($v1, $v2)`},
	{"books with at least 2 authors", `for $v1 in doc("dblp.xml")//book, $v3 in doc("dblp.xml")//title
	    let $vars1 := { for $v4 in doc("dblp.xml")//title, $v2 in doc("dblp.xml")//author
	                    where mqf($v4, $v2) and $v4 = $v3 return $v2 }
	    where mqf($v1, $v3) and count($vars1) >= 2 return $v1`},
}

// TestScaleParity is the CI scale smoke: point NALIX_SCALE_CORPUS at a
// generated corpus (cmd/dblpgen -stream -scale 14 → ~1M nodes) and the
// test checks 4-window parity on scaleQueries, each first evaluated cold.
// Skipped when unset so the ordinary test run stays fast.
func TestScaleParity(t *testing.T) {
	path := os.Getenv("NALIX_SCALE_CORPUS")
	if path == "" {
		t.Skip("NALIX_SCALE_CORPUS not set; scale smoke runs in CI")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := xmldb.Parse("dblp.xml", f)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("corpus: %d nodes", d.Size())
	eng := xquery.NewEngine()
	eng.AddDocument(d)
	for _, sq := range scaleQueries {
		expr, err := xquery.Parse(sq.query)
		if err != nil {
			t.Fatalf("%s: %v", sq.name, err)
		}
		t0 := time.Now()
		want, err := eng.Eval(expr)
		if err != nil {
			t.Fatalf("%s: unsharded: %v", sq.name, err)
		}
		t1 := time.Now()
		got, err := eng.EvalSharded(expr, 4, nil)
		if err != nil {
			t.Fatalf("%s: sharded: %v", sq.name, err)
		}
		t.Logf("%s: %d items, whole %v (cold), 4 windows %v", sq.name, len(want), t1.Sub(t0), time.Since(t1))
		if strings.Join(xquery.FlattenValues(got), "\n") != strings.Join(xquery.FlattenValues(want), "\n") {
			t.Errorf("%s: 4-shard answers differ from whole evaluation at scale", sq.name)
		}
	}
}
