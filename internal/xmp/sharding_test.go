package xmp

import (
	"os"
	"strings"
	"testing"

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

// TestScaleParity is the CI scale smoke: point NALIX_SCALE_CORPUS at a
// generated corpus (cmd/dblpgen -stream -scale 14 → ~1M nodes) and the
// test checks 4-window parity on an XMP subset. Skipped when unset so
// the ordinary test run stays fast.
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
	for _, id := range []string{"Q1", "Q4", "Q9"} {
		expr, err := xquery.Parse(TaskByID(id).Gold)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want, err := eng.Eval(expr)
		if err != nil {
			t.Fatalf("%s: unsharded: %v", id, err)
		}
		got, err := eng.EvalSharded(expr, 4, nil)
		if err != nil {
			t.Fatalf("%s: sharded: %v", id, err)
		}
		if strings.Join(xquery.FlattenValues(got), "\n") != strings.Join(xquery.FlattenValues(want), "\n") {
			t.Errorf("%s: 4-shard answers differ from whole evaluation at scale", id)
		}
	}
}
