package xquery

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nalix/internal/xmldb"
)

// Value pools of the generated documents: small, so values repeat across
// entries as names and titles do in a real bibliography.
var (
	genTitles  = []string{"Data on the Web", "XML Data", "Web Search", "The Data Cube", "Query Processing", "TCP/IP"}
	genAuthors = []string{"Abiteboul", "Buneman", "Suciu", "Stevens", "Gray", "Widom"}
	// genFamilies group the labels that co-occur in one kind of entry,
	// so most generated joins have answers.
	genFamilies = [][]string{
		{"title", "author", "book", "year", "publisher", "price", "editor", "last", "chapter"},
		{"title", "author", "article", "year", "journal"},
		{"series", "title", "book", "author", "year", "publisher"},
	}
)

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

// genDoc builds a seeded bib-like document: a root collection of more
// than three entries (so the root is a collection top) mixing books,
// editor-only books, books with a nested chapter entry, articles and
// series sub-collections of books.
func genDoc(seed int64) *xmldb.Document {
	rng := rand.New(rand.NewSource(seed))
	b := xmldb.NewBuilder("bib.xml")
	authors := func(n int) {
		for ; n > 0; n-- {
			b.Leaf("author", pick(rng, genAuthors))
		}
	}
	book := func() {
		b.Open("book", "year", fmt.Sprint(1990+rng.Intn(10)))
		b.Leaf("title", pick(rng, genTitles))
		if rng.Intn(4) == 0 {
			b.Open("editor").Leaf("last", pick(rng, genAuthors)).Leaf("affiliation", "CITI").Close()
		} else {
			authors(1 + rng.Intn(2))
		}
		b.Leaf("publisher", pick(rng, []string{"Addison-Wesley", "Morgan Kaufmann", "Kluwer"}))
		if rng.Intn(2) == 0 {
			b.Leaf("price", fmt.Sprintf("%d.95", 20+rng.Intn(90)))
		}
		if rng.Intn(3) == 0 {
			b.Open("chapter").Leaf("title", pick(rng, genTitles))
			authors(rng.Intn(2))
			b.Close()
		}
		b.Close()
	}
	b.Open("bib")
	for n := 4 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(5) {
		case 0:
			b.Open("series").Leaf("title", pick(rng, genTitles))
			for k := 1 + rng.Intn(2); k > 0; k-- {
				book()
			}
			b.Close()
		case 1:
			b.Open("article").Leaf("title", pick(rng, genTitles))
			authors(1 + rng.Intn(2))
			b.Leaf("journal", pick(rng, []string{"TODS", "VLDB J"}))
			b.Leaf("year", fmt.Sprint(1990+rng.Intn(10)))
			b.Close()
		default:
			book()
		}
	}
	b.Close()
	return b.Document()
}

// genValue returns a literal a conjunct on label can match: the value of
// a random label node of doc, or a year when the label is absent.
func genValue(rng *rand.Rand, doc *xmldb.Document, label string) string {
	if nodes := doc.NodesByLabel(label); len(nodes) > 0 {
		return strings.TrimSpace(nodes[rng.Intn(len(nodes))].Value())
	}
	return fmt.Sprint(1990 + rng.Intn(10))
}

// genQuery builds a translator-shaped FLWOR over doc: 2–4 label
// for-clauses joined by mqf calls of 2–4 arguments, with equality,
// contains() and comparison conjuncts, sometimes an order by, and
// sometimes a correlated aggregate let.
func genQuery(rng *rand.Rand, doc *xmldb.Document) string {
	k := 2 + rng.Intn(3)
	family := genFamilies[rng.Intn(len(genFamilies))]
	labels, vars, fors := make([]string, k), make([]string, k), make([]string, k)
	for i := range labels {
		labels[i] = pick(rng, family)
		if rng.Intn(6) == 0 {
			labels[i] = pick(rng, genFamilies[rng.Intn(len(genFamilies))])
		}
		vars[i] = fmt.Sprintf("$v%d", i+1)
		fors[i] = fmt.Sprintf("%s in doc(\"bib.xml\")//%s", vars[i], labels[i])
	}
	conj := []string{"mqf(" + strings.Join(vars, ", ") + ")"}
	if k == 4 && rng.Intn(2) == 0 {
		// Two overlapping calls, as for a nested modifier.
		conj = []string{"mqf($v1, $v2, $v3)", "mqf($v3, $v4)"}
	}
	for _, i := range rng.Perm(k)[:rng.Intn(2)+rng.Intn(2)] {
		switch rng.Intn(4) {
		case 0, 1:
			conj = append(conj, fmt.Sprintf("%s = %q", vars[i], genValue(rng, doc, labels[i])))
		case 2:
			conj = append(conj, fmt.Sprintf("contains(%s, %q)", vars[i], pick(rng, []string{"Data", "Web", "the", "Q"})))
		default:
			op := pick(rng, []string{">", "<=", "!=", "<"})
			conj = append(conj, fmt.Sprintf("%s %s %s", vars[i], op, genValue(rng, doc, "year")))
		}
	}
	ret := vars[0]
	if rng.Intn(2) == 0 {
		ret = fmt.Sprintf("(%s, %s)", vars[0], vars[1])
	}
	let := ""
	if rng.Intn(4) == 0 {
		// A correlated aggregate joins a copy of an outer variable's
		// label by value, as the translator does.
		o := rng.Intn(k)
		let = fmt.Sprintf("\nlet $vars1 := { for $w1 in doc(\"bib.xml\")//%s, $w2 in doc(\"bib.xml\")//%s where mqf($w1, $w2) and $w1 = %s return $w2 }",
			labels[o], pick(rng, family), vars[o])
		if rng.Intn(2) == 0 {
			conj = append(conj, fmt.Sprintf("count($vars1) >= %d", 1+rng.Intn(2)))
		} else {
			ret = fmt.Sprintf("(%s, count($vars1), min($vars1))", vars[0])
		}
	}
	q := "for " + strings.Join(fors, ",\n    ") + let + "\nwhere " + strings.Join(conj, " and ")
	if rng.Intn(4) == 0 {
		q += "\norder by " + vars[rng.Intn(k)] + pick(rng, []string{"", " descending"})
	}
	return q + "\nreturn " + ret
}

// TestGeneratedParity is the evaluator's differential parity test:
// seeded bib-like documents meet translator-shaped queries, and each
// case must give the same sequence (nodes by Pre identity, in order, and
// atoms) under every planner setting and at 2, 3 and 7 windows. With the
// planner off, mqf() is checked pairwise on complete tuples: the
// quadratic reference for structural domains and their intersections.
// Engines live for a whole document, so later queries hit memos earlier
// ones filled.
func TestGeneratedParity(t *testing.T) {
	settings := plannerSettings()
	cases, nonEmpty := 0, 0
	for seed := int64(1); seed <= 250; seed++ {
		doc := genDoc(seed)
		engines := make([]*Engine, len(settings)+1) // the last one runs windows
		for i := range engines {
			engines[i] = NewEngine()
			engines[i].AddDocument(doc)
			if i < len(settings) {
				engines[i].DisablePlanner, engines[i].ForceStrategy = settings[i].disable, settings[i].force
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for qi := 0; qi < 20; qi++ {
			q := genQuery(rng, doc)
			expr, err := Parse(q)
			if err != nil {
				t.Fatalf("seed %d: generated query does not parse: %v\n%s", seed, err, q)
			}
			var runs []Sequence
			var names []string
			add := func(name string, seq Sequence, err error) {
				if err != nil {
					t.Fatalf("seed %d under %s: %v\n%s", seed, name, err, q)
				}
				runs, names = append(runs, seq), append(names, name)
			}
			for i, s := range settings {
				seq, err := engines[i].Eval(expr)
				add(s.name, seq, err)
			}
			for _, n := range []int{2, 3, 7} {
				seq, err := engines[len(settings)].EvalSharded(expr, n, nil)
				add(fmt.Sprintf("%d windows", n), seq, err)
			}
			if len(runs[0]) > 0 {
				nonEmpty++
			}
			for i := 1; i < len(runs); i++ {
				if runs[i].String() != runs[0].String() {
					t.Fatalf("seed %d: %s differs from %s\n%s\ngot:  %s\nwant: %s", seed, names[i], names[0], q, runs[i], runs[0])
				}
			}
			cases++
		}
	}
	t.Logf("%d cases, %d with a non-empty answer", cases, nonEmpty)
	if nonEmpty < cases/3 {
		t.Errorf("only %d of %d cases have a non-empty answer; the generator exercises too little", nonEmpty, cases)
	}
}

// TestGeneratedOrderByTies runs the generated order-by cases of many more
// seeds than TestGeneratedParity: tuples with equal sort keys must come
// back in written-clause order, as they do with the planner off, also
// when the plan reordered the clauses. Ties under a reordered plan are
// rare (a few in thousands of cases), so the test evaluates only the
// order-by cases, and only under the two settings that differ in clause
// order: every forced strategy reorders as the auto planner does.
func TestGeneratedOrderByTies(t *testing.T) {
	settings := plannerSettings()[:2] // planner-off, auto
	cases := 0
	for seed := int64(1); seed <= 3000; seed++ {
		doc := genDoc(seed)
		rng := rand.New(rand.NewSource(seed))
		var engines []*Engine
		for qi := 0; qi < 20; qi++ {
			q := genQuery(rng, doc)
			expr, err := Parse(q)
			if err != nil {
				t.Fatalf("seed %d: generated query does not parse: %v\n%s", seed, err, q)
			}
			if len(expr.(*FLWOR).OrderBy) == 0 {
				continue
			}
			if engines == nil { // built on a seed's first order-by case only
				for _, s := range settings {
					e := NewEngine()
					e.AddDocument(doc)
					e.DisablePlanner, e.ForceStrategy = s.disable, s.force
					engines = append(engines, e)
				}
			}
			var want string
			for i, s := range settings {
				got, err := engines[i].Eval(expr)
				if err != nil {
					t.Fatalf("seed %d under %s: %v\n%s", seed, s.name, err, q)
				}
				if i == 0 {
					want = got.String()
				} else if got.String() != want {
					t.Fatalf("seed %d: %s differs from %s\n%s\ngot:  %s\nwant: %s", seed, s.name, settings[0].name, q, got, want)
				}
			}
			cases++
		}
	}
	t.Logf("%d order-by cases", cases)
}
