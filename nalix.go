// Package nalix is a from-scratch Go implementation of NaLIX — the
// generic natural language query interface for XML databases of Li, Yang
// and Jagadish (EDBT 2006) — together with every substrate the system
// needs: an in-memory native XML store, a Schema-Free XQuery engine with
// the mqf() meaningful-query-focus predicate, a dependency parser for the
// supported English query grammar, ontology-based term expansion, and a
// Meet-operator keyword-search baseline.
//
// The top-level Engine accepts arbitrary English query sentences. A
// sentence within the supported grammar is translated into Schema-Free
// XQuery and evaluated; one outside it is rejected with tailored feedback
// (error messages with rephrasing suggestions), driving the interactive
// query formulation loop the paper describes:
//
//	e := nalix.New()
//	e.LoadXMLString("bib.xml", bibXML)
//	ans, err := e.Ask("", `Find all books published by "Addison-Wesley" after 1991.`)
//	if ans.Accepted {
//		fmt.Println(ans.XQuery)      // the translation
//		fmt.Println(ans.Results)     // serialized result items
//	} else {
//		fmt.Println(ans.Feedback[0]) // how to rephrase
//	}
package nalix

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"

	"nalix/internal/cache"
	"nalix/internal/core"
	"nalix/internal/keyword"
	"nalix/internal/obs"
	"nalix/internal/ontology"
	"nalix/internal/xmldb"
	"nalix/internal/xquery"
)

// queriesTotal counts Ask calls process-wide, accepted or not.
var queriesTotal = obs.NewCounter("queries_total")

// Engine is a NaLIX instance: a set of loaded XML documents plus the
// translation pipeline. Configure it first — LoadXML, LoadXMLString,
// LoadDocument, AddSynonyms and the Set/Enable methods are not
// synchronized — and then query: once configuration is done, Ask,
// Translate, Query and KeywordSearch and their *Traced variants are safe
// for concurrent use from multiple goroutines, and their XQuery
// evaluations run in parallel.
//
// Tracing is chosen per call. The plain methods thread nil spans, which
// record and allocate nothing. Each *Traced method traces its one call
// and hands the finished trace back to its caller: on Answer.Trace, as
// KeywordSearchTraced's second result, or inside the *TraceError of a
// failed call. The engine keeps no traces; sampling and retaining them
// is the caller's business (internal/server does both).
type Engine struct {
	xq          *xquery.Engine
	ont         *ontology.Ontology
	translators map[string]*core.Translator
	keywords    map[string]*keyword.Engine
	defName     string

	// shards is the number of Pre windows each evaluation is split into
	// (see SetShards); 0 or 1 evaluates whole.
	shards int

	// reg receives per-stage latency histograms from finished traces;
	// nil means the process-wide obs.Default registry.
	reg *obs.Registry

	// The three cache layers plus the cold-ask singleflight group, all
	// nil until EnableCache (see cache.go).
	transCache  *cache.Cache[string, *core.Result]
	planCache   *cache.Cache[string, xquery.Expr]
	resultCache *cache.Cache[string, *Answer]
	flight      *cache.Flight[*Answer]

	// corpusGen counts document mutations; result-cache keys embed it
	// so no entry can outlive the corpus it was computed against.
	corpusGen atomic.Int64
}

// SetMetricsRegistry directs the per-stage latency histograms of traced
// calls into r instead of the process-wide obs.Default registry — the
// hook a server uses to give each serving surface its own metrics
// snapshot. A nil r restores the default. This is configuration: call it
// before sharing the engine between goroutines.
func (e *Engine) SetMetricsRegistry(r *obs.Registry) {
	e.reg = r
}

// registry returns the metrics registry traces observe into.
func (e *Engine) registry() *obs.Registry {
	if e.reg != nil {
		return e.reg
	}
	return obs.Default
}

// finishTrace closes a trace, feeds the stage-latency histograms,
// attaches the public snapshot to the answer, and returns that snapshot
// (nil on a nil trace).
func (e *Engine) finishTrace(tr *obs.Trace, ans *Answer) *Trace {
	if tr == nil {
		return nil
	}
	tr.Finish()
	tr.ObserveInto(e.registry())
	snap := convertTrace(tr)
	if ans != nil {
		ans.Trace = snap
	}
	return snap
}

// failTrace closes a trace on an error path: the error is tagged on the
// root and the finished trace goes back to the caller inside a
// *TraceError, so a failed call stays inspectable. On an untraced call
// (nil trace) it returns err unchanged.
func (e *Engine) failTrace(tr *obs.Trace, err error) error {
	if tr == nil {
		return err
	}
	tr.Root().Set("error", err.Error())
	return &TraceError{Err: err, Trace: e.finishTrace(tr, nil)}
}

// New returns an empty engine with the built-in generic thesaurus.
func New() *Engine {
	return &Engine{
		xq:          xquery.NewEngine(),
		ont:         ontology.New(),
		translators: make(map[string]*core.Translator),
		keywords:    make(map[string]*keyword.Engine),
	}
}

// LoadXML parses and registers a document under the given name. The first
// document loaded becomes the default (used when a method's docName is
// empty).
func (e *Engine) LoadXML(name string, r io.Reader) error {
	doc, err := xmldb.Parse(name, r)
	if err != nil {
		return err
	}
	e.addDoc(doc)
	return nil
}

// LoadXMLString is LoadXML over an in-memory string.
func (e *Engine) LoadXMLString(name, xml string) error {
	return e.LoadXML(name, strings.NewReader(xml))
}

// LoadDocument registers an already-built document, skipping the
// serialize/parse round-trip LoadXMLString would cost — the path scale
// tools use to serve generated million-node corpora directly, and to
// share one document read-only between several engines (a server's
// session pool). Like the other Load methods this is configuration: call
// before querying concurrently.
func (e *Engine) LoadDocument(doc *xmldb.Document) {
	e.addDoc(doc)
}

// SetShards splits every evaluation into n windows over contiguous,
// subtree-granularity Pre ranges of the document and evaluates them in
// parallel; n <= 1 restores whole evaluation. Answers are byte-identical
// in either mode — queries whose results cannot be split (order-by,
// non-FLWOR) are evaluated whole automatically (see
// xquery.Engine.EvalSharded). This is configuration: call it before
// querying concurrently.
func (e *Engine) SetShards(n int) {
	e.corpusGen.Add(1) // sharded and unsharded runs never share cached results
	e.shards = n
}

// Shards returns the configured shard count (1 when sharding is off).
func (e *Engine) Shards() int {
	return max(e.shards, 1)
}

// evalTraced evaluates a compiled expression, split into windows when
// sharding is enabled.
func (e *Engine) evalTraced(expr xquery.Expr, sp *obs.Span) (xquery.Sequence, error) {
	if e.shards > 1 {
		return e.xq.EvalSharded(expr, e.shards, sp)
	}
	return e.xq.EvalTraced(expr, sp)
}

func (e *Engine) addDoc(doc *xmldb.Document) {
	e.corpusGen.Add(1)
	e.xq.AddDocument(doc)
	tr := core.NewTranslator(doc, e.ont)
	if e.transCache != nil {
		tr.SetCache(e.transCache)
	}
	e.translators[doc.Name] = tr
	e.keywords[doc.Name] = keyword.NewEngine(doc)
	if e.defName == "" {
		e.defName = doc.Name
	}
}

// Close publishes any pending batched statistics — the mqf relatedness
// cache's sub-threshold hit/miss counts — to the process counters. An
// Engine holds no other releasable resources, so Close never fails and
// the Engine remains usable; call it when discarding a short-lived
// engine whose batches would otherwise never reach /metrics. Loading a
// document over an existing name flushes the replaced document's counts
// automatically.
func (e *Engine) Close() {
	e.xq.FlushStats()
}

// AddSynonyms extends the term-expansion ontology with a group of
// domain-specific synonyms (all terms in the group become synonyms of one
// another), the paper's hook for domain ontologies.
func (e *Engine) AddSynonyms(terms ...string) {
	e.ont.AddGroup(terms...)
}

// Documents lists the loaded document names: default document first,
// the rest alphabetical, so the listing is stable across calls.
func (e *Engine) Documents() []string {
	var out []string
	if e.defName != "" {
		out = append(out, e.defName)
	}
	var rest []string
	for name := range e.translators {
		if name != e.defName {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// Feedback is one validation message: an error (query rejected, rephrase
// needed) or a warning (query accepted with a caveat).
type Feedback struct {
	// IsError distinguishes rejection errors from advisory warnings.
	IsError bool
	// Code identifies the message family ("unknown-term", "no-command",
	// "unmatched-name", "unmatched-value", "pronoun", ...).
	Code string
	// Term is the offending word or phrase, when applicable.
	Term string
	// Message explains the problem in user terms.
	Message string
	// Suggestion proposes a concrete rephrasing, when one exists.
	Suggestion string
}

// String renders the feedback like the interactive CLI does.
func (f Feedback) String() string {
	kind := "warning"
	if f.IsError {
		kind = "error"
	}
	s := fmt.Sprintf("[%s] %s", kind, f.Message)
	if f.Suggestion != "" {
		s += " " + f.Suggestion
	}
	return s
}

// Answer is the outcome of asking one English question.
type Answer struct {
	// Accepted is true when the sentence was translated (warnings may
	// still be present); false means it was rejected and Feedback says
	// how to rephrase.
	Accepted bool
	// Feedback holds errors (when rejected) and warnings (always).
	Feedback []Feedback
	// ParseTree is the classified dependency parse tree, rendered one
	// node per line, for display and debugging.
	ParseTree string
	// XQuery is the generated Schema-Free XQuery text.
	XQuery string
	// Results holds the serialized XML of each result item (empty when
	// the question was only translated, not evaluated).
	Results []string
	// Values holds the flattened element/attribute values of the
	// results, the representation the paper scores precision and recall
	// on.
	Values []string
	// Bindings describes the Schema-Free XQuery variables the
	// translation introduced (the paper's Table 3): variable name,
	// database label, and whether the underlying name token is a core
	// token or an implicit insertion.
	Bindings []Binding
	// Trace is the observability record of this call — the timed span
	// tree of pipeline stages plus per-call counters. Only the *Traced
	// methods set it; the plain ones leave it nil.
	Trace *Trace
	// Cached is true when the answer came from the result cache (or was
	// coalesced onto another goroutine's in-flight run) instead of a
	// pipeline execution. Cached answers share slices with the cache:
	// treat them as read-only.
	Cached bool
}

// Binding is one row of the variable-binding table.
type Binding struct {
	// Var is the variable name without the '$'.
	Var string
	// Label is the database element/attribute the variable ranges over.
	Label string
	// Core marks core-token variables (Definition 3 of the paper).
	Core bool
	// Implicit marks variables created for implicit name tokens
	// (Definition 11).
	Implicit bool
}

// Translate runs the pipeline up to XQuery generation without evaluating
// the query.
func (e *Engine) Translate(docName, english string) (*Answer, error) {
	return e.translateWith(docName, english, nil)
}

// TranslateTraced is Translate with a per-call trace: the answer carries
// Answer.Trace, and a failed call returns a *TraceError holding the
// trace — the request-scoped form servers use.
func (e *Engine) TranslateTraced(docName, english string) (*Answer, error) {
	return e.translateWith(docName, english, obs.NewTrace("translate"))
}

func (e *Engine) translateWith(docName, english string, t *obs.Trace) (*Answer, error) {
	_, ans, err := e.translate(docName, english, t.Root())
	if err != nil {
		return nil, e.failTrace(t, err)
	}
	e.finishTrace(t, ans)
	return ans, nil
}

func (e *Engine) translate(docName, english string, sp *obs.Span) (*core.Result, *Answer, error) {
	if docName == "" {
		docName = e.defName
	}
	tr, ok := e.translators[docName]
	if !ok {
		return nil, nil, fmt.Errorf("nalix: document %q not loaded", docName)
	}
	res, err := tr.TranslateTraced(english, sp)
	if err != nil {
		return nil, nil, err
	}
	ans := &Answer{
		Accepted:  res.Valid(),
		ParseTree: res.Tree.String(),
		XQuery:    res.XQuery,
	}
	for _, b := range res.Bindings {
		ans.Bindings = append(ans.Bindings, Binding{
			Var: b.Var, Label: b.Label, Core: b.Core, Implicit: b.Implicit,
		})
	}
	for _, f := range res.Errors {
		ans.Feedback = append(ans.Feedback, convertFeedback(f, true))
	}
	for _, f := range res.Warnings {
		ans.Feedback = append(ans.Feedback, convertFeedback(f, false))
	}
	return res, ans, nil
}

func convertFeedback(f core.Feedback, isErr bool) Feedback {
	return Feedback{
		IsError:    isErr,
		Code:       string(f.Code),
		Term:       f.Term,
		Message:    f.Message,
		Suggestion: f.Suggestion,
	}
}

// Ask translates an English sentence and, when accepted, evaluates the
// resulting XQuery against the document.
func (e *Engine) Ask(docName, english string) (*Answer, error) {
	return e.askWith(docName, english, nil)
}

// AskTraced is Ask with a per-call trace: the answer carries
// Answer.Trace, and a failed call returns a *TraceError holding the
// trace — the request-scoped form servers use.
func (e *Engine) AskTraced(docName, english string) (*Answer, error) {
	return e.askWith(docName, english, obs.NewTrace("ask"))
}

func (e *Engine) askWith(docName, english string, t *obs.Trace) (*Answer, error) {
	queriesTotal.Add(1)
	if e.resultCache == nil {
		ans, err := e.askUncached(docName, english, t)
		if err != nil {
			return nil, e.failTrace(t, err)
		}
		return ans, nil
	}
	key := e.resultKey(docName, english)
	if stored, ok := e.resultCache.Get(key); ok {
		return e.serveCached(stored, t, "hit"), nil
	}
	t.Root().Set("result_cache", "miss")
	// Each caller passes its own closure, so the leader's trace records
	// the full pipeline; followers coalesce and finish their traces as
	// cached serves.
	ans, shared, err := e.flight.Do(key, func() (*Answer, error) {
		a, err := e.askUncached(docName, english, t)
		if err != nil {
			return nil, err
		}
		stored := *a
		stored.Trace = nil
		e.resultCache.Put(key, &stored)
		return a, nil
	})
	switch {
	case err != nil:
		return nil, e.failTrace(t, err)
	case shared:
		return e.serveCached(ans, t, "coalesced"), nil
	}
	return ans, nil
}

// askUncached runs the full ask pipeline: translate, evaluate,
// serialize. Its errors are bare; askWith finishes the trace on them.
func (e *Engine) askUncached(docName, english string, t *obs.Trace) (*Answer, error) {
	root := t.Root()
	res, ans, err := e.translate(docName, english, root)
	if err != nil {
		return nil, err
	}
	if !ans.Accepted {
		countRejected(ans)
		root.Set("accepted", "false")
		e.finishTrace(t, ans)
		return ans, nil
	}
	esp := root.Start("eval")
	seq, err := e.evalTraced(res.Query, esp)
	esp.End()
	if err != nil {
		return nil, fmt.Errorf("nalix: evaluating translation: %w", err)
	}
	ssp := root.Start("serialize")
	fill(ans, seq)
	ssp.SetInt("results", int64(len(ans.Results)))
	ssp.End()
	e.finishTrace(t, ans)
	return ans, nil
}

// countRejected tags a rejected query process-wide, labeled with the
// code of the first (deciding) error.
func countRejected(ans *Answer) {
	obs.Add("queries_rejected_total", 1)
	for _, f := range ans.Feedback {
		if f.IsError {
			obs.Add(obs.Labeled("queries_rejected", "code", f.Code), 1)
			return
		}
	}
}

// Query evaluates a raw (Schema-Free) XQuery string against the loaded
// documents and returns the answer (Accepted is always true; ParseTree is
// empty).
func (e *Engine) Query(xq string) (*Answer, error) {
	return e.queryWith(xq, nil)
}

// QueryTraced is Query with a per-call trace: the answer carries
// Answer.Trace, and a failed call returns a *TraceError holding the
// trace.
func (e *Engine) QueryTraced(xq string) (*Answer, error) {
	return e.queryWith(xq, obs.NewTrace("query"))
}

func (e *Engine) queryWith(xq string, t *obs.Trace) (*Answer, error) {
	root := t.Root()
	psp := root.Start("parse")
	expr, err := e.xq.Compile(xq)
	psp.End()
	if err != nil {
		return nil, e.failTrace(t, err)
	}
	esp := root.Start("eval")
	seq, err := e.evalTraced(expr, esp)
	esp.End()
	if err != nil {
		return nil, e.failTrace(t, err)
	}
	ans := &Answer{Accepted: true, XQuery: xq}
	ssp := root.Start("serialize")
	fill(ans, seq)
	ssp.SetInt("results", int64(len(ans.Results)))
	ssp.End()
	e.finishTrace(t, ans)
	return ans, nil
}

func fill(ans *Answer, seq xquery.Sequence) {
	for _, it := range seq {
		switch v := it.(type) {
		case xquery.NodeItem:
			ans.Results = append(ans.Results, xmldb.SerializeString(v.Node))
		default:
			ans.Results = append(ans.Results, xquery.AtomizeItem(it))
		}
	}
	ans.Values = xquery.FlattenValues(seq)
}

// KeywordSearch runs the baseline keyword interface over a document and
// returns the serialized meet results — the comparison system of the
// paper's user study.
func (e *Engine) KeywordSearch(docName, query string) ([]string, error) {
	out, _, err := e.keywordWith(docName, query, nil)
	return out, err
}

// KeywordSearchTraced is KeywordSearch with a per-call trace, returned
// alongside the results (KeywordSearch has no Answer to attach it to);
// a failed call returns a *TraceError holding the trace.
func (e *Engine) KeywordSearchTraced(docName, query string) ([]string, *Trace, error) {
	return e.keywordWith(docName, query, obs.NewTrace("keyword"))
}

func (e *Engine) keywordWith(docName, query string, t *obs.Trace) ([]string, *Trace, error) {
	if docName == "" {
		docName = e.defName
	}
	kw, ok := e.keywords[docName]
	if !ok {
		return nil, nil, e.failTrace(t, fmt.Errorf("nalix: document %q not loaded", docName))
	}
	var out []string
	for _, hit := range kw.SearchTraced(query, t.Root()) {
		out = append(out, xmldb.SerializeString(hit.Node))
	}
	return out, e.finishTrace(t, nil), nil
}
