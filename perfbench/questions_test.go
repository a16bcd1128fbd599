package main

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"nalix/internal/cache"
	"nalix/internal/core"
	"nalix/internal/dataset"
	"nalix/internal/ontology"
)

func testVocab(t *testing.T) vocab {
	t.Helper()
	v := corpusVocab(dataset.Generate(1))
	if len(v.publishers) == 0 || len(v.years) == 0 || len(v.authors) == 0 || len(v.titleTerms) == 0 {
		t.Fatalf("empty vocabulary: %d publishers, %d years, %d authors, %d title terms",
			len(v.publishers), len(v.years), len(v.authors), len(v.titleTerms))
	}
	return v
}

func testRefs(t *testing.T, w *workload) map[string]reference {
	t.Helper()
	refs, err := loadReferences(w.scale)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func TestSameSeedSameStream(t *testing.T) {
	v := testVocab(t)
	for _, w := range workloads {
		a := makePlan(w, v, testRefs(t, w), 7, 10, 2)
		b := makePlan(w, v, testRefs(t, w), 7, 10, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different plans", w.name)
		}
		c := makePlan(w, v, testRefs(t, w), 8, 10, 2)
		if reflect.DeepEqual(a.Stream, c.Stream) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestLookupsNeverRepeat(t *testing.T) {
	v := testVocab(t)
	for _, w := range workloads {
		p := makePlan(w, v, testRefs(t, w), 3, 10, 2)
		seen := map[string]bool{}
		var qs []question
		for _, ws := range p.Warmup {
			qs = append(qs, ws...)
		}
		for _, r := range p.Stream {
			qs = append(qs, r.question)
		}
		for _, q := range qs {
			if q.repeats() {
				continue
			}
			c := cache.CanonicalQuery(q.Text)
			if seen[c] {
				t.Errorf("%s: lookup %q repeats within a run", w.name, q.Text)
			}
			seen[c] = true
		}
	}
}

// TestFamiliesShareLookups checks that each template family gets its
// weight's share of a lookup stream, whatever the family sizes.
func TestFamiliesShareLookups(t *testing.T) {
	v := testVocab(t)
	for _, w := range workloads {
		if w.study {
			continue
		}
		families := lookupFamilies(v, w.scale > 1)
		family := map[string]int{}
		var total int
		for f, fam := range families {
			total += fam.weight
			for _, q := range fam.qs {
				family[q.Text] = f
			}
		}
		p := makePlan(w, v, testRefs(t, w), 5, 10, 2)
		n := make([]int, len(families))
		for _, r := range p.Stream {
			n[family[r.Text]]++
		}
		for f, c := range n {
			want := float64(families[f].weight) / float64(total)
			if share := float64(c) / float64(len(p.Stream)); math.Abs(share-want) > 0.001 {
				t.Errorf("%s: family %d (%s) has share %.4f of %d lookups, want %.4f", w.name, f, families[f].qs[0].Shape, share, len(p.Stream), want)
			}
		}
	}
}

// TestStreamsShareAnswerSizes checks that the stratified draw gives every
// seed's lookup-1M stream about the same mean reference result count over
// the first 400 lookups, about what one 20 s run asks.
func TestStreamsShareAnswerSizes(t *testing.T) {
	w := findWorkload("lookup-1M")
	v, refs := testVocab(t), testRefs(t, w)
	var means []float64
	for seed := int64(1); seed <= 10; seed++ {
		var sum int
		for _, r := range makePlan(w, v, refs, seed, 20, 2).Stream[:400] {
			sum += refs[cache.CanonicalQuery(r.Text)].Results
		}
		means = append(means, float64(sum)/400)
	}
	lo, hi := slices.Min(means), slices.Max(means)
	if hi > 1.05*lo {
		t.Errorf("mean result count per seed ranges from %.0f to %.0f", lo, hi)
	}
}

func TestStudyMix(t *testing.T) {
	v := testVocab(t)
	w := findWorkload("study-73k")
	p := makePlan(w, v, testRefs(t, w), 1, 30, 2)
	var repeats int
	last := -1.0
	for _, r := range p.Stream {
		if r.Due < last || r.Due >= 30 {
			t.Fatalf("due times not increasing within the run: %v after %v", r.Due, last)
		}
		last = r.Due
		if r.repeats() {
			repeats++
		}
	}
	n := float64(len(p.Stream))
	if n < 0.9*studyRate*30 || n > 1.1*studyRate*30 {
		t.Errorf("%v arrivals in 30 s at %v/s", n, studyRate)
	}
	if f := float64(repeats) / n; f < 0.75 || f > 0.85 {
		t.Errorf("study repeat share %.3f, want about %v", f, studyRepeatFrac)
	}
	if len(p.Warmup[0]) < len(studyPool()) {
		t.Errorf("warm-up runs %d questions, fewer than the %d study phrasings", len(p.Warmup[0]), len(studyPool()))
	}
}

// TestReferencesCoverPools checks that every question a workload can send
// has a reference answer and that every lookup question is accepted.
func TestReferencesCoverPools(t *testing.T) {
	v := testVocab(t)
	for _, w := range workloads {
		refs, err := loadReferences(w.scale)
		if err != nil {
			t.Fatal(err)
		}
		pool := lookupPool(v, w.scale > 1)
		for _, q := range pool {
			ref, ok := refs[cache.CanonicalQuery(q.Text)]
			if !ok {
				t.Errorf("%s: no reference answer for %q", w.name, q.Text)
				continue
			}
			if !ref.Accepted {
				t.Errorf("%s: lookup %q is rejected (%s)", w.name, q.Text, ref.Code)
			}
		}
		if w.study {
			for _, q := range studyPool() {
				if _, ok := refs[cache.CanonicalQuery(q.Text)]; !ok {
					t.Errorf("%s: no reference answer for study phrasing %q", w.name, q.Text)
				}
			}
		}
	}
}

// TestShapesShareXQuery checks that the wordings of one shape translate
// to the same XQuery, so running each shape once warms them all.
func TestShapesShareXQuery(t *testing.T) {
	doc := dataset.Generate(1)
	v := corpusVocab(doc)
	tr := core.NewTranslator(doc, ontology.New())
	groups := []struct {
		templates []template
		args      []any
	}{
		{pubYearTemplates, []any{v.publishers[0], "after", v.years[0]}},
		{authorTemplates, []any{v.authors[0]}},
		{slices.Concat(bookWordTemplates, titleWordTemplates), []any{v.titleTerms[0]}},
	}
	first := map[string]string{} // shape → XQuery of its first wording
	for _, g := range groups {
		for _, tmpl := range g.templates {
			q := fmt.Sprintf(tmpl.format, g.args...)
			res, err := tr.Translate(q)
			if err != nil {
				t.Fatalf("translating %q: %v", q, err)
			}
			want, ok := first[tmpl.shape]
			if !ok {
				first[tmpl.shape] = res.XQuery
			} else if res.XQuery != want {
				t.Errorf("%q (shape %s) translates to\n%s\nbut the shape's first wording to\n%s", q, tmpl.shape, res.XQuery, want)
			}
		}
	}
}

var constant = regexp.MustCompile(`"[^"]+"|\b\d{4}\b`)

// TestLookup1MShapes checks that the 1M pool holds neither the
// title–book–author shapes nor full scans (questions without a constant).
func TestLookup1MShapes(t *testing.T) {
	for _, q := range lookupPool(testVocab(t), true) {
		text := constant.ReplaceAllString(q.Text, "")
		if strings.Contains(text, "author") {
			t.Errorf("lookup-1M holds the author shape %q", q.Text)
		}
		if !constant.MatchString(q.Text) {
			t.Errorf("lookup-1M holds the full-scan shape %q", q.Text)
		}
		if strings.Contains(text, "book") && strings.Contains(text, "contains") {
			t.Errorf("lookup-1M holds the book title-word shape %q", q.Text)
		}
	}
}
