package nalix

// Benchmark harness: one benchmark per evaluation artifact of the paper
// (Fig. 11, Fig. 12, Table 7), the Sec. 5.1 latency claims (translation
// and evaluation each well under a second), throughput benchmarks for the
// substrates, and ablation benchmarks for the design choices DESIGN.md
// calls out (structural-join planner, MQF semantics, core tokens, term
// expansion). Artifact benchmarks attach their headline numbers as custom
// metrics so `go test -bench` output doubles as a results table.

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"nalix/internal/core"
	"nalix/internal/dataset"
	"nalix/internal/keyword"
	"nalix/internal/nlp"
	"nalix/internal/obs"
	"nalix/internal/study"
	"nalix/internal/xmldb"
	"nalix/internal/xmp"
	"nalix/internal/xquery"
)

var (
	benchOnce   sync.Once
	benchCorpus *xmldb.Document
)

func corpus() *xmldb.Document {
	benchOnce.Do(func() { benchCorpus = dataset.Generate(1) })
	return benchCorpus
}

func studyConfig(participants int) study.Config {
	cfg := study.DefaultConfig()
	cfg.Participants = participants
	cfg.Corpus = corpus()
	return cfg
}

// BenchmarkFig11EaseOfUse regenerates Fig. 11 (time and iterations per
// task). Reported metrics: the worst-task mean iterations (paper: 3.8) and
// the overall mean time per task in seconds (paper: mostly under 90).
func BenchmarkFig11EaseOfUse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := study.Run(studyConfig(6))
		if err != nil {
			b.Fatal(err)
		}
		rows := res.Fig11()
		worst, totalTime := 0.0, 0.0
		for _, r := range rows {
			if r.MeanIter > worst {
				worst = r.MeanIter
			}
			totalTime += r.MeanTime
		}
		b.ReportMetric(worst, "worst-iters")
		b.ReportMetric(totalTime/float64(len(rows)), "mean-task-sec")
	}
}

// BenchmarkFig12SearchQuality regenerates Fig. 12 (NaLIX vs keyword per
// task). Reported metrics: average NaLIX precision/recall (paper: 83.0 /
// 90.1) and average keyword precision.
func BenchmarkFig12SearchQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := study.Run(studyConfig(6))
		if err != nil {
			b.Fatal(err)
		}
		rows := res.Fig12()
		var np, nr, kp float64
		for _, r := range rows {
			np += r.NaLIXPrecision
			nr += r.NaLIXRecall
			kp += r.KeywordPrecision
		}
		n := float64(len(rows))
		b.ReportMetric(100*np/n, "nalix-P%")
		b.ReportMetric(100*nr/n, "nalix-R%")
		b.ReportMetric(100*kp/n, "keyword-P%")
	}
}

// BenchmarkTable7Attribution regenerates Table 7. Reported metrics: the
// all-queries precision (paper: 83.0%) and the parsed-correctly precision
// (paper: 95.1%).
func BenchmarkTable7Attribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := study.Run(studyConfig(6))
		if err != nil {
			b.Fatal(err)
		}
		rows := res.Table7()
		b.ReportMetric(100*rows[0].Precision, "all-P%")
		b.ReportMetric(100*rows[2].Precision, "parsed-P%")
	}
}

// BenchmarkTranslationLatency measures the NL→XQuery pipeline (parse,
// classify, validate, translate) on the paper-scale corpus. The paper
// reports translation times consistently under a second.
func BenchmarkTranslationLatency(b *testing.B) {
	tr := core.NewTranslator(corpus(), nil)
	const q = `Return the year and title of books published by "Addison-Wesley" after 1991.`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tr.Translate(q)
		if err != nil || !res.Valid() {
			b.Fatalf("translate: %v %v", err, res.Errors)
		}
	}
}

// BenchmarkEvaluationLatency measures executing a translated query on the
// paper-scale corpus. The paper reports evaluation times under a second.
func BenchmarkEvaluationLatency(b *testing.B) {
	eng := xquery.NewEngine()
	eng.AddDocument(corpus())
	tr := core.NewTranslator(corpus(), nil)
	res, err := tr.Translate(`Return the year and title of books published by "Addison-Wesley" after 1991.`)
	if err != nil || !res.Valid() {
		b.Fatalf("translate: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Eval(res.Query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndAsk measures the full Ask path on a small document.
func BenchmarkEndToEndAsk(b *testing.B) {
	e := New()
	var sb strings.Builder
	if err := dataset.WriteXML(&sb, dataset.Library()); err != nil {
		b.Fatal(err)
	}
	if err := e.LoadXMLString("library.xml", sb.String()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := e.Ask("", `Find all movies directed by "Ron Howard".`)
		if err != nil || !ans.Accepted {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsk measures the full Ask path untraced (Ask) and traced
// (AskTraced). The untraced run is the zero-overhead contract of the
// observability layer: it must stay within noise of the
// pre-instrumentation baseline, since it threads only nil spans (no-ops)
// through the pipeline. The sampled run adds the server's tail-sampling
// verdict to each traced ask — one obs.Sampler.Decide under the default
// policy — so its only extra work is the retention decision itself.
// BENCH_obs.json gates sampled within 5% of traced via a benchguard
// ratio entry. Headline numbers live in BENCH_obs.json.
func BenchmarkAsk(b *testing.B) {
	run := func(b *testing.B, traced, sampled bool) {
		e := New()
		if err := e.LoadXMLString("bib.xml", bibXML); err != nil {
			b.Fatal(err)
		}
		ask := e.Ask
		if traced {
			ask = e.AskTraced
		}
		var sampler *obs.Sampler
		if sampled {
			sampler = obs.NewSampler(obs.DefaultSamplerConfig())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ans, err := ask("", `Find all books published by "Addison-Wesley" after 1991.`)
			if err != nil || !ans.Accepted {
				b.Fatalf("ask: %v %v", err, ans)
			}
			if sampler != nil {
				sampler.Decide(ans.Trace.Root.Duration, false, "")
			}
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, false, false) })
	b.Run("traced", func(b *testing.B) { run(b, true, false) })
	b.Run("sampled", func(b *testing.B) { run(b, true, true) })
}

// BenchmarkAskCached measures the layered query cache on the full Ask
// path with the same question both ways. "miss" reloads the document
// between iterations (outside the timer), which bumps the corpus
// generation and makes every ask a true cold query through the cached
// machinery: canonicalization, key build, result-cache lookup,
// singleflight, the pipeline, and the store. "hit" warms the cache
// once, so every timed ask is a result-cache read plus an answer copy.
// The gap between the two is what EnableCache buys on repeated
// questions; headline numbers live in BENCH_cache.json.
func BenchmarkAskCached(b *testing.B) {
	newCached := func(b *testing.B) *Engine {
		e := New()
		e.EnableCache(CacheConfig{})
		if err := e.LoadXMLString("bib.xml", bibXML); err != nil {
			b.Fatal(err)
		}
		return e
	}
	const q = `Find all books published by "Addison-Wesley" after 1991.`
	b.Run("miss", func(b *testing.B) {
		e := newCached(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ans, err := e.Ask("", q)
			if err != nil || !ans.Accepted || ans.Cached {
				b.Fatalf("ask: %v %v", err, ans)
			}
			b.StopTimer()
			if err := e.LoadXMLString("bib.xml", bibXML); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("hit", func(b *testing.B) {
		e := newCached(b)
		if _, err := e.Ask("", q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ans, err := e.Ask("", q)
			if err != nil || !ans.Accepted || !ans.Cached {
				b.Fatalf("ask: %v %v", err, ans)
			}
		}
	})
}

// BenchmarkEvalStage measures the XQuery evaluation stage alone, traced
// vs untraced, on the paper-scale corpus. Traced evaluation pays for
// clock reads around the planner, each clause-domain evaluation, and each
// mqf() call, plus the aggregate flush.
func BenchmarkEvalStage(b *testing.B) {
	eng := xquery.NewEngine()
	eng.AddDocument(corpus())
	tr := core.NewTranslator(corpus(), nil)
	res, err := tr.Translate(`Return the year and title of books published by "Addison-Wesley" after 1991.`)
	if err != nil || !res.Valid() {
		b.Fatalf("translate: %v", err)
	}
	b.Run("untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Eval(res.Query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := obs.NewTrace("eval")
			if _, err := eng.EvalTraced(res.Query, t.Root()); err != nil {
				b.Fatal(err)
			}
			t.Finish()
		}
	})
}

var (
	bigOnce   sync.Once
	bigCorpus *xmldb.Document
)

// scaledCorpus returns the ~1M-node corpus (14x the paper scale),
// generated once per process so -count repetitions share it.
func scaledCorpus() *xmldb.Document {
	bigOnce.Do(func() { bigCorpus = dataset.Generate(14) })
	return bigCorpus
}

// BenchmarkEvalStageScale pins the structural-join scaling claim: the
// same five-variable join evaluated at the paper-scale corpus (~73k
// nodes) and at ~1M nodes. With per-label indexes the planner's work
// grows with the matching label domains, not the document, so the 1M
// run should stay within roughly the corpus-size ratio of the 73k run
// rather than the quadratic blowup of the legacy nested-loop join.
func BenchmarkEvalStageScale(b *testing.B) {
	tr := core.NewTranslator(corpus(), nil)
	res, err := tr.Translate(`Return the year and title of books published by "Addison-Wesley" after 1991.`)
	if err != nil || !res.Valid() {
		b.Fatalf("translate: %v", err)
	}
	for _, sc := range []struct {
		name string
		doc  func() *xmldb.Document
	}{
		{"73k", corpus},
		{"1M", scaledCorpus},
	} {
		b.Run(sc.name, func(b *testing.B) {
			eng := xquery.NewEngine()
			eng.AddDocument(sc.doc())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Eval(res.Query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalStageSharded pins the windowed-evaluation claims. The
// five-variable join runs through xquery.Engine.EvalSharded at 1 shard
// (whole evaluation) and 8 shards (parallel windows over contiguous Pre
// ranges, concatenated in window order). At 1M nodes on a multi-core
// machine the 8-shard run should be at least ~3x faster than the
// 1-shard run; with fewer cores the windows only pay overhead, so that
// gate is conditioned on GOMAXPROCS (benchguard min_procs). The
// title-term lookup, whose driving book domain dominates its cost,
// runs at 1 and 2 shards on the 73k corpus: its gate needs only 2
// cores. The optional 10M tier generates a ~10.5M-node corpus
// in-process and is skipped unless NALIX_BENCH_10M=1.
func BenchmarkEvalStageSharded(b *testing.B) {
	tr := core.NewTranslator(corpus(), nil)
	translate := func(q string) xquery.Expr {
		res, err := tr.Translate(q)
		if err != nil || !res.Valid() {
			b.Fatalf("translate %q: %v", q, err)
		}
		return res.Query
	}
	join := translate(`Return the year and title of books published by "Addison-Wesley" after 1991.`)
	title := translate(`Return the title of books whose title contains "Data".`)
	type row struct {
		name   string
		doc    func() *xmldb.Document
		expr   xquery.Expr
		shards []int
	}
	rows := []row{
		{"73k", corpus, join, []int{1, 8}},
		{"73k-title", corpus, title, []int{1, 2}},
		{"1M", scaledCorpus, join, []int{1, 8}},
	}
	if os.Getenv("NALIX_BENCH_10M") == "1" {
		rows = append(rows, row{"10M", func() *xmldb.Document { return dataset.Generate(140) }, join, []int{1, 8}})
	}
	for _, r := range rows {
		doc := r.doc()
		for _, shards := range r.shards {
			eng := xquery.NewEngine()
			eng.AddDocument(doc)
			b.Run(fmt.Sprintf("%s-%dshard", r.name, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eng.EvalSharded(r.expr, shards, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKeywordSearch measures the Meet-operator baseline on the
// paper-scale corpus.
func BenchmarkKeywordSearch(b *testing.B) {
	kw := keyword.NewEngine(corpus())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := kw.Search(`book publisher "Addison-Wesley" year title`); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkXMLLoad measures parsing the 1.4 MB corpus from text.
func BenchmarkXMLLoad(b *testing.B) {
	var sb strings.Builder
	if err := dataset.WriteXML(&sb, corpus()); err != nil {
		b.Fatal(err)
	}
	xml := sb.String()
	b.SetBytes(int64(len(xml)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmldb.ParseString("dblp.xml", xml); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPlanner quantifies the structural-join optimizer: the
// same translated query evaluated with and without mqf-candidate pruning
// and equality pushdown, on a corpus small enough for the naive
// nested-loop plan to finish.
func BenchmarkAblationPlanner(b *testing.B) {
	// Small corpus: the naive plan is a five-way nested loop whose cost
	// grows with the product of the label domains.
	doc := dataset.GenerateEntries(8, 16)
	tr := core.NewTranslator(doc, nil)
	res, err := tr.Translate(`Return the year and title of books published by "Addison-Wesley" after 1991.`)
	if err != nil || !res.Valid() {
		b.Fatalf("translate: %v", err)
	}
	b.Run("planned", func(b *testing.B) {
		eng := xquery.NewEngine()
		eng.AddDocument(doc)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Eval(res.Query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		eng := xquery.NewEngine()
		eng.AddDocument(doc)
		eng.DisablePlanner = true
		eng.MaxSteps = 1 << 40
		for i := 0; i < b.N; i++ {
			if _, err := eng.Eval(res.Query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMQF quantifies what the mqf() predicate buys in result
// quality: the Q1 task translated and scored with MQF on and off.
// Reported metric: harmonic mean of precision and recall.
func BenchmarkAblationMQF(b *testing.B) {
	doc := dataset.GenerateEntries(8, 16)
	runner := xmp.NewRunner(doc)
	task := xmp.TaskByID("Q1")
	phrasing := task.Good()[0].Text
	b.Run("mqf-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := runner.RunNL(task, phrasing)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(out.PR.Harmonic(), "f1")
		}
	})
	b.Run("mqf-off", func(b *testing.B) {
		runner2 := xmp.NewRunner(doc)
		runner2.Engine.MQFDisabled = true
		for i := 0; i < b.N; i++ {
			out, err := runner2.RunNL(task, phrasing)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(out.PR.Harmonic(), "f1")
		}
	})
}

// BenchmarkAblationCoreTokens quantifies core-token identification
// (Def. 3): the paper's Query 3 on the movies+books library translated
// with and without it. Reported metric: result count (1 when the core
// token groups variables correctly; 0 when everything collapses into one
// unsatisfiable join).
func BenchmarkAblationCoreTokens(b *testing.B) {
	doc := dataset.Library()
	eng := xquery.NewEngine()
	eng.AddDocument(doc)
	const q = "Return the directors of movies, where the title of each movie is the same as the title of a book."
	run := func(b *testing.B, disable bool) {
		tr := core.NewTranslator(doc, nil)
		tr.DisableCoreTokens = disable
		for i := 0; i < b.N; i++ {
			res, err := tr.Translate(q)
			if err != nil {
				b.Fatal(err)
			}
			count := 0.0
			if res.Valid() {
				if out, err := eng.Eval(res.Query); err == nil {
					count = float64(len(out))
				}
			}
			b.ReportMetric(count, "results")
		}
	}
	b.Run("core-tokens-on", func(b *testing.B) { run(b, false) })
	b.Run("core-tokens-off", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationTermExpansion quantifies ontology term expansion: the
// fraction of synonym-phrased queries still answerable without it.
func BenchmarkAblationTermExpansion(b *testing.B) {
	doc := corpus()
	queries := []string{
		`Find the writers of "Data on the Web".`,
		`List all periodicals.`,
		`Return the heading of every book.`,
	}
	run := func(b *testing.B, disable bool) {
		tr := core.NewTranslator(doc, nil)
		tr.DisableExpansion = disable
		for i := 0; i < b.N; i++ {
			ok := 0
			for _, q := range queries {
				if res, err := tr.Translate(q); err == nil && res.Valid() {
					ok++
				}
			}
			b.ReportMetric(float64(ok)/float64(len(queries)), "accepted-frac")
		}
	}
	b.Run("expansion-on", func(b *testing.B) { run(b, false) })
	b.Run("expansion-off", func(b *testing.B) { run(b, true) })
}

// BenchmarkMQFChecker measures the meaningful-relatedness primitive.
func BenchmarkMQFChecker(b *testing.B) {
	runner := xmp.NewRunner(corpus())
	eng := runner.Engine
	q := `for $t in doc("dblp.xml")//title, $b in doc("dblp.xml")//book where mqf($t, $b) and $b/year = 1994 return $t`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDependencyParse measures the NL front end alone.
func BenchmarkDependencyParse(b *testing.B) {
	const q = "Return every director, where the number of movies directed by the director is the same as the number of movies directed by Ron Howard."
	for i := 0; i < b.N; i++ {
		if _, err := nlp.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}
