package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"nalix/internal/cache"
	"nalix/internal/xmldb"
	"nalix/internal/xmp"
)

// question is one generated /ask input. Shape names the template (or XMP
// task) it came from: questions of one shape translate to the same
// XQuery modulo constants, so the warm-up runs each shape once per
// session.
type question struct {
	Text  string
	Shape string
}

// repeats reports whether the question may be asked more than once in a
// run: only the study phrasings are.
func (q question) repeats() bool { return strings.HasPrefix(q.Shape, "study-") }

// template is one English wording with its constant slots.
type template struct {
	shape  string
	format string
}

// verbs open every lookup wording. They do not change the translated
// XQuery, so the four wordings of one pattern and output share a shape.
var verbs = []string{"Return", "Find", "List", "Show"}

// expand fills each pattern's <verb> and <out> slots with every verb and
// output, one template per combination. The shape is the family name,
// the pattern and the output; each family has as many wordings as it
// needs for a 20 s closed loop not to run out of distinct questions.
func expand(family string, outs []string, patterns ...string) []template {
	var out []template
	for i, p := range patterns {
		for j, o := range outs {
			for _, v := range verbs {
				out = append(out, template{fmt.Sprintf("%s-%d.%d", family, i+1, j+1),
					strings.NewReplacer("<verb>", v, "<out>", o).Replace(p)})
			}
		}
	}
	return out
}

// Publisher × year × after/before lookups: the XMP Q1/Q7 constraint with
// other constants.
var pubYearTemplates = expand("pubyear", []string{"title", "year and title", "title and year", "title and publisher"},
	`<verb> the <out> of books published by "%s" %s %d.`,
	`<verb> the <out> of books where the publisher is "%s" and the year is %s %d.`)

// Full author-name lookups (title–book–author shapes, 73k only).
var authorTemplates = expand("author", []string{"title", "title and year"},
	`<verb> the <out> of books whose author is "%s".`,
	`<verb> the <out> of articles whose author is "%s".`)

// Title-term lookups over books (73k only: at 1M their structural join
// is the cold-cost shape the README describes).
var bookWordTemplates = expand("bookword", []string{"titles", "title and year"},
	`<verb> the <out> of books whose title contains "%s".`)

// Title-term lookups over every title, the XMP Q9 shape.
var titleWordTemplates = expand("titleword", []string{""},
	`<verb> every title that contains "%s".`,
	`<verb> all titles that contain "%s".`)

// vocab is the set of corpus constants the templates are filled with,
// read from the generated corpus itself so the questions follow the
// dataset package.
type vocab struct {
	publishers []string
	years      []int
	authors    []string
	titleTerms []string
}

// maxTermShare caps a title term's share of all titles: a term in more
// titles than this ("Data") would make a handful of questions return
// tens of thousands of results and dominate the tail.
const maxTermShare = 0.08

// corpusVocab extracts the template constants from a corpus: every
// publisher and book author, the book years without the two lowest and
// two highest (so "before"/"after" never select nothing), and the title
// terms found in at most maxTermShare of the titles. A title term is an
// alphabetic title word of four or more letters, or a run of two or
// three alphabetic title words that starts and ends with such a word
// ("Query Processing", "Foundations of Keyword"). The corpus titles have
// only about forty such words, too few for a third of a closed loop's
// distinct questions; the phrases keep the title-term family as large as
// the others.
func corpusVocab(doc *xmldb.Document) vocab {
	distinct := func(label string) []string {
		seen := map[string]bool{}
		var out []string
		for _, n := range doc.NodesByLabel(label) {
			v := strings.TrimSpace(n.Value())
			if v != "" && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		sort.Strings(out)
		return out
	}
	var v vocab
	v.publishers = distinct("publisher")
	for _, y := range distinct("year") {
		var n int
		if _, err := fmt.Sscanf(y, "%d", &n); err == nil {
			v.years = append(v.years, n)
		}
	}
	sort.Ints(v.years)
	if len(v.years) > 4 {
		v.years = v.years[2 : len(v.years)-2]
	}
	for _, a := range doc.NodesByLabel("author") {
		if p := a.Parent; p != nil && p.Label == "book" {
			v.authors = append(v.authors, strings.TrimSpace(a.Value()))
		}
	}
	v.authors = dedupSorted(v.authors)

	titles := doc.NodesByLabel("title")
	count := map[string]int{}
	for _, t := range titles {
		seen := map[string]bool{}
		words := strings.Fields(t.Value())
		for i := range words {
			for n := 1; n <= 3 && i+n <= len(words); n++ {
				if term, ok := titleTerm(words[i : i+n]); ok && !seen[term] {
					seen[term] = true
					count[term]++
				}
			}
		}
	}
	for term, c := range count {
		if float64(c) <= maxTermShare*float64(len(titles)) {
			v.titleTerms = append(v.titleTerms, term)
		}
	}
	sort.Strings(v.titleTerms)
	return v
}

// titleTerm joins consecutive title words into a term, if they make one:
// every word alphabetic (a trailing "," or ":" is dropped from the last),
// the first and last of four or more letters.
func titleTerm(words []string) (string, bool) {
	last := len(words) - 1
	words = append([]string(nil), words...)
	words[last] = strings.TrimRight(words[last], ",:")
	for _, w := range words {
		if !isAlpha(w) {
			return "", false
		}
	}
	if len(words[0]) < 4 || len(words[last]) < 4 {
		return "", false
	}
	return strings.Join(words, " "), true
}

func dedupSorted(s []string) []string {
	sort.Strings(s)
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func isAlpha(s string) bool {
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
			return false
		}
	}
	return true
}

// family is one template family's lookup questions, in a fixed order,
// with its weight: the family's share of the lookups drawn is its weight
// over the sum of the weights.
type family struct {
	weight int
	qs     []question
}

// lookupFamilies returns a workload's constant-bearing lookup questions
// grouped by template family: publisher × year × after/before, full
// author name, and title term. At 73k the families have equal weights.
// The 1M families leave out the author and book title-term shapes (see
// README.md), and title terms weigh twice as much as publisher × year:
// the two families' latencies at 1M barely overlap (about 12–40 ms
// against 45–90 ms), and with equal shares the median would fall in the
// gap between them, where a few asks more of one family move it by a
// tenth. With a 1 : 2 mix it falls inside the title-term mode.
func lookupFamilies(v vocab, largeCorpus bool) []family {
	var pubYear, author, term []question
	for _, t := range pubYearTemplates {
		for _, p := range v.publishers {
			for _, y := range v.years {
				for _, dir := range []string{"after", "before"} {
					pubYear = append(pubYear, question{fmt.Sprintf(t.format, p, dir, y), t.shape})
				}
			}
		}
	}
	termTemplates := titleWordTemplates
	if !largeCorpus {
		termTemplates = append(append([]template(nil), bookWordTemplates...), titleWordTemplates...)
	}
	for _, t := range termTemplates {
		for _, w := range v.titleTerms {
			term = append(term, question{fmt.Sprintf(t.format, w), t.shape})
		}
	}
	if largeCorpus {
		return []family{{1, pubYear}, {2, term}}
	}
	for _, t := range authorTemplates {
		for _, a := range v.authors {
			author = append(author, question{fmt.Sprintf(t.format, a), t.shape})
		}
	}
	return []family{{1, pubYear}, {1, author}, {1, term}}
}

// lookupPool returns every lookup question of a workload, family after
// family.
func lookupPool(v vocab, largeCorpus bool) []question {
	var out []question
	for _, f := range lookupFamilies(v, largeCorpus) {
		out = append(out, f.qs...)
	}
	return out
}

// studyPool returns the 60 phrasings of the nine XMP study tasks, in the
// paper's task order; rejected (Invalid) phrasings are included.
func studyPool() []question {
	var out []question
	for _, t := range xmp.Tasks() {
		for _, p := range t.Phrasings {
			out = append(out, question{p.Text, "study-" + t.ID})
		}
	}
	return out
}

// request is one entry of a workload stream: the question and, for the
// open loop, when it is due relative to the start of the timed phase.
type request struct {
	question
	Due float64 // seconds after the start of the timed phase
}

// plan is a workload's generated input: the warm-up questions per
// session and the timed stream.
type plan struct {
	Warmup [][]question // [session] → questions, each shape once
	Stream []request
}

// Study traffic parameters (study-73k).
const (
	studyRate       = 100.0 // Poisson arrivals per second
	studyRepeatFrac = 0.8   // share of requests that repeat a study phrasing
	studyZipfS      = 1.1   // Zipf exponent over the popularity ranking
)

// studyRanking orders the study phrasings by popularity: each task's
// first phrasing, then each task's second, and so on, so every task has
// a popular phrasing. The ranking is fixed; the benchmark seed varies
// the draws, not the ranking, so runs on different seeds carry the same
// mix.
func studyRanking() []question {
	var out []question
	tasks := xmp.Tasks()
	for k := 0; len(out) < len(studyPool()); k++ {
		for _, t := range tasks {
			if k < len(t.Phrasings) {
				out = append(out, question{t.Phrasings[k].Text, "study-" + t.ID})
			}
		}
	}
	return out
}

// strata is how many result-size strata stratify splits a family into.
const strata = 16

// stratify returns a family's questions in a seeded order whose every
// block of strata consecutive questions holds one from each stratum of
// the family's reference result counts, smallest to largest. Result size
// sets much of an ask's cost (at 1M a publisher × year lookup returns
// from a few hundred to about four thousand items), and a plain shuffle
// lets one seed draw noticeably more large answers than another; drawn
// stratum by stratum, every run carries the same mix of answer sizes.
func stratify(qs []question, refs map[string]reference, rng *rand.Rand) []question {
	size := make(map[string]int, len(qs))
	for _, q := range qs {
		size[q.Text] = refs[cache.CanonicalQuery(q.Text)].Results
	}
	sort.SliceStable(qs, func(i, j int) bool { return size[qs[i].Text] < size[qs[j].Text] })
	groups := make([][]question, strata)
	for i, q := range qs {
		k := i * strata / len(qs)
		groups[k] = append(groups[k], q)
	}
	for _, g := range groups {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	out := make([]question, 0, len(qs))
	for k := 0; len(out) < len(qs); k++ {
		for _, g := range rng.Perm(strata) {
			if k < len(groups[g]) {
				out = append(out, groups[g][k])
			}
		}
	}
	return out
}

// makePlan generates a workload's warm-up sets and timed stream from the
// seed. The warm-up lookups are the first questions of each shape in
// family order, the same on every seed, so warm-up time does not depend
// on the seed. The other lookups draw their family from seeded blocks,
// each a shuffle holding every family as often as its weight, so every
// run carries the families in their exact shares; the question is the
// family's next one in its stratified order, so no canonical question
// repeats within a run. A closed-loop stream ends when a drawn family is
// used up.
func makePlan(w *workload, v vocab, refs map[string]reference, seed int64, seconds float64, sessions int) plan {
	rng := rand.New(rand.NewSource(seed))
	families := lookupFamilies(v, w.scale > 1)

	var p plan
	p.Warmup = make([][]question, sessions)
	for s := 0; s < sessions; s++ {
		if w.study {
			p.Warmup[s] = append(p.Warmup[s], studyPool()...)
		}
		seen := map[string]bool{}
		for f, fam := range families {
			var rest []question
			for _, q := range fam.qs {
				if !seen[q.Shape] {
					seen[q.Shape] = true
					p.Warmup[s] = append(p.Warmup[s], q)
					continue
				}
				rest = append(rest, q)
			}
			families[f].qs = rest
		}
	}
	for f := range families {
		families[f].qs = stratify(families[f].qs, refs, rng)
	}
	var block []int
	fresh := func() (question, bool) {
		if len(block) == 0 {
			for f, fam := range families {
				for k := 0; k < fam.weight; k++ {
					block = append(block, f)
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		fam := &families[block[0]]
		block = block[1:]
		if len(fam.qs) == 0 {
			return question{}, false
		}
		q := fam.qs[0]
		fam.qs = fam.qs[1:]
		return q, true
	}

	if !w.study {
		for {
			q, ok := fresh()
			if !ok {
				return p
			}
			p.Stream = append(p.Stream, request{question: q})
		}
	}

	study := studyRanking()
	zipf := rand.NewZipf(rng, studyZipfS, 1, uint64(len(study)-1))
	t := 0.0
	for {
		t += rng.ExpFloat64() / studyRate
		if t >= seconds {
			break
		}
		if rng.Float64() >= studyRepeatFrac {
			if q, ok := fresh(); ok {
				p.Stream = append(p.Stream, request{question: q, Due: t})
				continue
			}
		}
		p.Stream = append(p.Stream, request{question: study[zipf.Uint64()], Due: t})
	}
	return p
}
