package xquery

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nalix/internal/obs"
	"nalix/internal/xmldb"
)

// skewedCorpus builds a bib document whose top-level entries have
// adversarially skewed subtree sizes: a few giant books among many tiny
// ones, in a seeded random arrangement.
func skewedCorpus(tb testing.TB, entries int, seed int64) *xmldb.Document {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := xmldb.NewBuilder("skew.xml")
	b.Open("bib")
	for i := 0; i < entries; i++ {
		b.Open("book", "year", fmt.Sprintf("%d", 1990+i%9))
		b.Leaf("title", fmt.Sprintf("Title %03d", i))
		authors := 1
		if rng.Intn(7) == 0 {
			// A giant entry: two orders of magnitude above the typical.
			authors = 100 + rng.Intn(200)
		}
		for a := 0; a < authors; a++ {
			b.Open("author")
			b.Leaf("last", fmt.Sprintf("Last%03d", rng.Intn(50)))
			b.Leaf("first", fmt.Sprintf("First%03d", a))
			b.Close()
		}
		b.Close()
	}
	b.Close()
	return b.Document()
}

// checkPartition asserts the partition invariants: ranges are
// contiguous, cover [0, Size-1] exactly, and never split a top-level
// entry subtree.
func checkPartition(t *testing.T, d *xmldb.Document, rs []Range, n int) {
	t.Helper()
	if len(rs) != n {
		t.Fatalf("got %d ranges, want %d", len(rs), n)
	}
	lo := 0
	for k, r := range rs {
		if r.Lo != lo {
			t.Fatalf("window %d: Lo = %d, want %d (ranges must be contiguous)", k, r.Lo, lo)
		}
		if r.Hi >= r.Lo {
			lo = r.Hi + 1
		}
	}
	if lo != d.Size() {
		t.Fatalf("ranges cover [0,%d), want [0,%d)", lo, d.Size())
	}
	// No entry subtree is split: an entry's whole Pre interval lands in
	// the range that contains its first node.
	var entries []*xmldb.Node
	for _, c := range d.RootElement().Children {
		if c.Kind == xmldb.ElementNode {
			entries = append(entries, c)
		}
	}
	for ei, entry := range entries {
		end := d.Size() - 1
		if ei+1 < len(entries) {
			end = entries[ei+1].Pre - 1
		}
		for _, r := range rs {
			if entry.Pre >= r.Lo && entry.Pre <= r.Hi && end > r.Hi {
				t.Fatalf("entry at Pre %d (ends %d) split across window boundary at %d", entry.Pre, end, r.Hi)
			}
		}
	}
}

func TestPartitionInvariants(t *testing.T) {
	for _, entries := range []int{1, 3, 50, 300} {
		d := skewedCorpus(t, entries, int64(entries))
		for _, n := range []int{1, 2, 7, 16} {
			t.Run(fmt.Sprintf("entries=%d/shards=%d", entries, n), func(t *testing.T) {
				checkPartition(t, d, Partition(d, n), n)
			})
		}
	}
}

// TestMergedStreamPreSorted is the gather-order property test: for every
// window count and an adversarially skewed corpus, concatenating the
// per-window restrictions of a label stream in window order is
// Pre-sorted and identical to the unwindowed stream.
func TestMergedStreamPreSorted(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d := skewedCorpus(t, 200, seed)
		for _, n := range []int{1, 2, 7, 16} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, n), func(t *testing.T) {
				rs := Partition(d, n)
				checkPartition(t, d, rs, n)
				for _, label := range []string{"book", "author", "last", "title", "year"} {
					var all Sequence
					for _, node := range d.NodesByLabel(label) {
						all = append(all, NodeItem{node})
					}
					var merged Sequence
					for _, r := range rs {
						merged = append(merged, windowSequence(all, r.Lo, r.Hi)...)
					}
					if len(merged) != len(all) {
						t.Fatalf("label %s: merged %d nodes, want %d", label, len(merged), len(all))
					}
					for i := range merged {
						if merged[i] != all[i] {
							t.Fatalf("label %s: merged[%d] differs from document order", label, i)
						}
					}
				}
			})
		}
	}
}

func windowCorpus(t *testing.T) *xmldb.Document {
	t.Helper()
	b := xmldb.NewBuilder("bib.xml")
	b.Open("bib")
	for i := 0; i < 40; i++ {
		b.Open("book", "year", fmt.Sprintf("%d", 1990+i%5))
		b.Leaf("title", fmt.Sprintf("Title %02d", i))
		b.Open("author")
		b.Leaf("last", fmt.Sprintf("Last%02d", i%7))
		b.Close()
		b.Close()
	}
	b.Close()
	return b.Document()
}

const windowQuery = `for $b in doc("bib.xml")//book, $t in doc("bib.xml")//title ` +
	`where mqf($b, $t) and $b/@year = "1992" return $t`

// TestWindowedUnionMatchesUnwindowed splits [0, maxPre] into two
// windows at a top-level entry boundary and checks that concatenating
// the windowed evaluations reproduces the unwindowed result exactly —
// the invariant EvalSharded's gather relies on.
func TestWindowedUnionMatchesUnwindowed(t *testing.T) {
	d := windowCorpus(t)
	eng := NewEngine()
	eng.AddDocument(d)
	want, err := eng.Query(windowQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("unwindowed query returned nothing; test corpus broken")
	}
	books := d.NodesByLabel("book")
	cut := books[len(books)/2].Pre
	expr, err := Parse(windowQuery)
	if err != nil {
		t.Fatal(err)
	}
	var got Sequence
	for _, w := range []Range{{0, cut - 1}, {cut, d.Size() - 1}} {
		part, err := eng.evalOne(expr, nil, nil, &w)
		if err != nil {
			t.Fatalf("window %v: %v", w, err)
		}
		if len(part) == 0 || len(part) == len(want) {
			t.Fatalf("window %v returned %d of %d items; the cut should split the answer", w, len(part), len(want))
		}
		got = append(got, part...)
	}
	wantS := strings.Join(FlattenValues(want), "\n")
	gotS := strings.Join(FlattenValues(got), "\n")
	if wantS != gotS {
		t.Fatalf("windowed union differs from unwindowed result:\nwant %q\ngot  %q", wantS, gotS)
	}
}

func TestShardablePredicate(t *testing.T) {
	d := windowCorpus(t)
	eng := NewEngine()
	eng.AddDocument(d)
	cases := []struct {
		q    string
		want bool
	}{
		{windowQuery, true},
		{`for $b in doc("bib.xml")//book order by $b/title return $b`, false},
		{`//title`, false},
		{`for $b in doc("bib.xml")//book return $b/title`, true},
		{`for $b in doc("bib.xml")//book, $b in doc("bib.xml")//title return $b`, false},
	}
	for _, c := range cases {
		expr, err := Parse(c.q)
		if err != nil {
			t.Fatalf("parse %q: %v", c.q, err)
		}
		if _, _, got := eng.drivingClause(expr); got != c.want {
			t.Errorf("drivingClause(%q) ok = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestNonShardableFallsBack checks that queries windows cannot split are
// evaluated whole, with the same answer and a fallback count.
func TestNonShardableFallsBack(t *testing.T) {
	d := skewedCorpus(t, 30, 3)
	eng := NewEngine()
	eng.AddDocument(d)
	for _, q := range []string{
		`for $b in doc("skew.xml")//book order by $b/title return $b/title`,
		`//title`,
	} {
		want, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%q: unsharded: %v", q, err)
		}
		expr, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		before := obs.Default.Snapshot().Counter("shard_fallback_total")
		got, err := eng.EvalSharded(expr, 4, nil)
		if err != nil {
			t.Fatalf("%q: sharded: %v", q, err)
		}
		if strings.Join(FlattenValues(got), "\n") != strings.Join(FlattenValues(want), "\n") {
			t.Errorf("%q: fallback answer differs from unsharded evaluation", q)
		}
		if obs.Default.Snapshot().Counter("shard_fallback_total") == before {
			t.Errorf("%q: shard_fallback_total did not move", q)
		}
	}
}

// TestShardedEvalKeepsEngineOptions checks that every window runs under
// the engine's own options and that the windows of one evaluation share
// one binding budget instead of getting one each.
func TestShardedEvalKeepsEngineOptions(t *testing.T) {
	d := skewedCorpus(t, 150, 5)
	eng := NewEngine()
	eng.AddDocument(d)
	eng.MaxSteps = 100 // below the 150 driving bindings
	expr, err := Parse(`for $b in doc("skew.xml")//book return $b/title`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(expr); !errors.Is(err, ErrBudget) {
		t.Fatalf("unsharded: got %v, want ErrBudget", err)
	}
	if seq, err := eng.EvalSharded(expr, 4, nil); !errors.Is(err, ErrBudget) {
		t.Fatalf("4 windows: got %d items, err %v; want ErrBudget", len(seq), err)
	}
	eng.MaxSteps = 0

	// mqf() disabled turns the join into a cross product; windows must
	// answer it the same way.
	eng.MQFDisabled = true
	q := `for $b in doc("skew.xml")//book, $t in doc("skew.xml")//title where $b/@year = "1994" and mqf($b, $t) return $t`
	want, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	expr, err = Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.EvalSharded(expr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || strings.Join(FlattenValues(got), "\n") != strings.Join(FlattenValues(want), "\n") {
		t.Errorf("MQFDisabled: 4 windows returned %d items, unsharded %d", len(got), len(want))
	}
}

// TestScatterGatherConcurrent runs evaluations from many goroutines at
// once on one engine: windowed and whole runs of the same parsed
// queries, a contains() and an ftcontains() shape, and an order-by
// query. The engine starts cold, so the document's domain memo and its
// full-text index are first filled and built under contention. Run
// under -race this is the engine's concurrency check.
func TestScatterGatherConcurrent(t *testing.T) {
	d := skewedCorpus(t, 150, 42)
	queries := []string{
		`for $b in doc("skew.xml")//book, $t in doc("skew.xml")//title where mqf($b, $t) and $b/@year = "1994" return $t`,
		`for $b in doc("skew.xml")//book, $t in doc("skew.xml")//title where mqf($b, $t) and contains($t, "1") return $t`,
		`for $b in doc("skew.xml")//book, $l in doc("skew.xml")//last where mqf($b, $l) and ftcontains($b, "title 042") return $l`,
		`for $l in doc("skew.xml")//last return $l`,
		`for $b in doc("skew.xml")//book order by $b/title return $b/title`,
	}
	ref := NewEngine()
	ref.AddDocument(d)
	want := make([]string, len(queries))
	exprs := make([]Expr, len(queries))
	for i, q := range queries {
		expr, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		exprs[i] = expr
		seq, err := ref.Eval(expr)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) == 0 {
			t.Fatalf("query %d returned nothing; test corpus broken", i)
		}
		want[i] = strings.Join(FlattenValues(seq), "\n")
	}
	eng := NewEngine()
	eng.AddDocument(d)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 2*len(queries); rep++ {
				i := (g + rep) % len(queries)
				var seq Sequence
				var err error
				switch shards := []int{0, 2, 16}[(g+rep/len(queries))%3]; shards {
				case 0:
					seq, err = eng.Eval(exprs[i])
				default:
					seq, err = eng.EvalSharded(exprs[i], shards, nil)
				}
				if err != nil {
					errc <- err
					return
				}
				if got := strings.Join(FlattenValues(seq), "\n"); got != want[i] {
					errc <- fmt.Errorf("goroutine %d: query %d: concurrent answer differs", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
