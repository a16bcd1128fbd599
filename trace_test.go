package nalix

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// acceptanceQuery is the worked example of the README's explain section;
// it exercises every pipeline stage (multi-variable translation, planner
// reordering, mqf joins).
const acceptanceQuery = `Find all books published by "Addison-Wesley" after 1991.`

// TestTraceCoversPipelineStages: a traced Ask yields a span tree naming
// every stage of the pipeline, with non-zero timings on the timed ones.
func TestTraceCoversPipelineStages(t *testing.T) {
	e := newEngine(t)
	ans, err := e.AskTraced("", acceptanceQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Accepted {
		t.Fatalf("rejected: %v", ans.Feedback)
	}
	if ans.Trace == nil {
		t.Fatal("AskTraced returned no Answer.Trace")
	}
	r := ans.Trace.Render()
	for _, stage := range []string{"ask", "parse", "classify", "validate",
		"translate", "plan", "eval", "mqf", "serialize"} {
		if !strings.Contains(r, stage) {
			t.Errorf("trace missing stage %q:\n%s", stage, r)
		}
	}
	// The root and the timed pipeline stages must show real durations.
	if ans.Trace.Root.Duration <= 0 {
		t.Errorf("root span has no duration:\n%s", r)
	}
	for _, c := range ans.Trace.Root.Children {
		switch c.Name {
		case "parse", "eval":
			if c.Duration <= 0 {
				t.Errorf("stage %q has no duration:\n%s", c.Name, r)
			}
		}
	}
	if len(ans.Trace.Counters) == 0 {
		t.Errorf("trace has no counters:\n%s", r)
	}
}

// TestTraceDeterministic: two identical questions against the same engine
// produce structurally identical traces — same span tree, same attribute
// values, same counter deltas; only timings may differ.
func TestTraceDeterministic(t *testing.T) {
	e := newEngine(t)
	first, err := e.AskTraced("", acceptanceQuery)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.AskTraced("", acceptanceQuery)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := first.Trace.Structure(), second.Trace.Structure()
	if s1 != s2 {
		t.Fatalf("trace structures differ:\n--- first ---\n%s\n--- second ---\n%s", s1, s2)
	}
	// A rejected query's trace is deterministic too, and tags its
	// feedback codes.
	r1, err := e.AskTraced("", "Return every book as cheap as possible.")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.AskTraced("", "Return every book as cheap as possible.")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trace.Structure() != r2.Trace.Structure() {
		t.Fatalf("rejection traces differ:\n%s\n---\n%s", r1.Trace.Structure(), r2.Trace.Structure())
	}
	if !strings.Contains(r1.Trace.Structure(), "feedback{code=") {
		t.Errorf("rejection trace misses feedback code:\n%s", r1.Trace.Structure())
	}
}

// TestTraceDisabled: the plain methods attach no trace — the pipeline
// runs on the nil-span path (whose allocation freedom is proven in
// internal/obs).
func TestTraceDisabled(t *testing.T) {
	e := newEngine(t)
	ans, err := e.Ask("", acceptanceQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Trace != nil {
		t.Fatal("plain Ask attached a trace")
	}
}

// second and third keep only the error of a multi-value call, so a
// table can hold each call inline.
func second[A any](_ A, err error) error { return err }

func third[A, B any](_ A, _ B, err error) error { return err }

// rootAttr returns the value of one root-span attribute ("" if absent).
func rootAttr(tr *Trace, key string) string {
	for _, a := range tr.Root.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// traceFromError asserts that err is a *TraceError and returns its
// trace, checking the error= tag on the root and that Unwrap yields a
// cause with the same message.
func traceFromError(t *testing.T, err error) *Trace {
	t.Helper()
	var te *TraceError
	if !errors.As(err, &te) {
		t.Fatalf("error %v (%T) is not a *TraceError", err, err)
	}
	cause := errors.Unwrap(err)
	if cause == nil || cause != te.Err {
		t.Fatalf("Unwrap = %v, want the cause %v", cause, te.Err)
	}
	if errors.As(cause, new(*TraceError)) {
		t.Fatalf("cause %v is itself a *TraceError", cause)
	}
	if err.Error() != cause.Error() {
		t.Errorf("Error() = %q, want the cause's %q", err.Error(), cause.Error())
	}
	wellFormedTrace(t, te.Trace)
	if got := rootAttr(te.Trace, "error"); got != cause.Error() {
		t.Errorf("root error attr = %q, want %q", got, cause.Error())
	}
	return te.Trace
}

// TestTracedFailuresReturnTraceError: every *Traced method hands a
// failed call's finished trace back inside a *TraceError, rooted at the
// method's name and tagged with the error, while the plain method fails
// with a bare error carrying the same message. The cached engine's ask
// fails inside the result cache's singleflight.
func TestTracedFailuresReturnTraceError(t *testing.T) {
	e := newEngine(t)
	cached := newCachedEngine(t, "bib.xml", bibXML)
	cases := []struct {
		root          string
		traced, plain error
	}{
		{"ask", second(e.AskTraced("", "")), second(e.Ask("", ""))},
		{"ask", second(cached.AskTraced("", "")), second(cached.Ask("", ""))},
		{"translate", second(e.TranslateTraced("nope.xml", "List all titles.")),
			second(e.Translate("nope.xml", "List all titles."))},
		{"keyword", third(e.KeywordSearchTraced("nope.xml", "book")),
			second(e.KeywordSearch("nope.xml", "book"))},
		{"query", second(e.QueryTraced("for $x in (((")), second(e.Query("for $x in ((("))},
	}
	for _, c := range cases {
		tr := traceFromError(t, c.traced)
		if tr.Root.Name != c.root {
			t.Errorf("root = %q, want %q", tr.Root.Name, c.root)
		}
		if c.plain == nil || c.plain.Error() != c.traced.Error() {
			t.Errorf("%s: plain error %v, traced error %v: want the same message", c.root, c.plain, c.traced)
		}
		if errors.As(c.plain, new(*TraceError)) {
			t.Errorf("%s: plain call returned a *TraceError", c.root)
		}
	}
}

// wellFormedTrace asserts the structural invariants every finished
// trace must satisfy, on any path: a named root, no empty span names
// anywhere in the tree, and a renderable form.
func wellFormedTrace(t *testing.T, tr *Trace) {
	t.Helper()
	if tr == nil || tr.Root == nil {
		t.Fatal("trace or root missing")
	}
	var walk func(s *TraceSpan)
	walk = func(s *TraceSpan) {
		if s.Name == "" {
			t.Errorf("empty span name in trace:\n%s", tr.Render())
		}
		for _, c := range s.Children {
			if c == nil {
				t.Fatalf("nil child span in trace:\n%s", tr.Render())
			}
			walk(c)
		}
	}
	walk(tr.Root)
	if tr.Render() == "" {
		t.Error("trace renders empty")
	}
}

// TestTraceParseFailure: a question the NL parser cannot process at all
// still produces a well-formed trace — finished, handed back in the
// error, and tagged with it — instead of vanishing with the failed call.
func TestTraceParseFailure(t *testing.T) {
	e := newEngine(t)
	_, err := e.AskTraced("", "")
	if err == nil {
		t.Fatal("expected a parse error for empty input")
	}
	tr := traceFromError(t, err)
	if tr.Root.Name != "ask" {
		t.Errorf("root = %q, want ask", tr.Root.Name)
	}
	if errAttr := rootAttr(tr, "error"); !strings.Contains(errAttr, "empty query") {
		t.Errorf("root error attr = %q, want the parse error", errAttr)
	}
	if len(tr.Root.Children) == 0 || tr.Root.Children[0].Name != "parse" {
		t.Errorf("failed ask lost its parse span:\n%s", tr.Render())
	}
}

// TestTraceValidationFeedback: a question that draws validation
// feedback produces a well-formed trace on the answer, with the
// rejection marked and every feedback code tagged as a counter.
func TestTraceValidationFeedback(t *testing.T) {
	e := newEngine(t)
	ans, err := e.AskTraced("", "Return every book as cheap as possible.")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Accepted {
		t.Fatal("expected rejection")
	}
	wellFormedTrace(t, ans.Trace)
	if accepted := rootAttr(ans.Trace, "accepted"); accepted != "false" {
		t.Errorf("root accepted attr = %q, want false", accepted)
	}
	var tagged bool
	for _, c := range ans.Trace.Counters {
		if strings.HasPrefix(c.Name, "feedback{code=") && c.Value > 0 {
			tagged = true
		}
	}
	if !tagged {
		t.Errorf("no feedback code tagged in trace counters: %+v", ans.Trace.Counters)
	}
	// The pipeline stops at validation: no eval or serialize spans.
	for _, c := range ans.Trace.Root.Children {
		if c.Name == "eval" || c.Name == "serialize" {
			t.Errorf("rejected question ran stage %q:\n%s", c.Name, ans.Trace.Render())
		}
	}
}

// TestQueryTraceFailure: a malformed raw XQuery still finishes its
// trace and hands it back in the error, with the parse span and the
// error tagged.
func TestQueryTraceFailure(t *testing.T) {
	e := newEngine(t)
	_, err := e.QueryTraced("for $x in (((")
	if err == nil {
		t.Fatal("expected a parse error")
	}
	tr := traceFromError(t, err)
	if tr.Root.Name != "query" {
		t.Errorf("root = %q, want query", tr.Root.Name)
	}
	if len(tr.Root.Children) == 0 || tr.Root.Children[0].Name != "parse" {
		t.Errorf("failed query lost its parse span:\n%s", tr.Render())
	}
}

// TestPerRequestTracedVariants: the *Traced methods attach a per-call
// trace — the request-scoped form the HTTP server uses — while the
// untraced methods stay traceless.
func TestPerRequestTracedVariants(t *testing.T) {
	e := newEngine(t)
	ans, err := e.AskTraced("", acceptanceQuery)
	if err != nil {
		t.Fatal(err)
	}
	wellFormedTrace(t, ans.Trace)
	if ans.Trace.Root.Name != "ask" {
		t.Errorf("root = %q, want ask", ans.Trace.Root.Name)
	}

	tans, err := e.TranslateTraced("", "List all titles.")
	if err != nil {
		t.Fatal(err)
	}
	wellFormedTrace(t, tans.Trace)

	qans, err := e.QueryTraced(`for $b in doc("bib.xml")//book return $b/title`)
	if err != nil {
		t.Fatal(err)
	}
	wellFormedTrace(t, qans.Trace)

	hits, ktr, err := e.KeywordSearchTraced("", `book "Addison-Wesley"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("keyword search found nothing")
	}
	wellFormedTrace(t, ktr)
	if ktr.Root.Name != "keyword" {
		t.Errorf("root = %q, want keyword", ktr.Root.Name)
	}

	// The plain methods remain traceless.
	plain, err := e.Ask("", acceptanceQuery)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced Ask attached a trace")
	}
}

// TestConcurrentAsk is the contract test for the Engine doc comment: a
// configured engine serves AskTraced, TranslateTraced, QueryTraced and
// KeywordSearchTraced from many goroutines, each call building and
// returning its own trace. Run with -race.
func TestConcurrentAsk(t *testing.T) {
	e := newEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var ans *Answer
				var tr *Trace
				var err error
				switch g % 4 {
				case 0:
					ans, err = e.AskTraced("", acceptanceQuery)
					if err == nil && !ans.Accepted {
						err = errorFromFeedback(ans)
					}
				case 1:
					ans, err = e.TranslateTraced("", "List all titles.")
				case 2:
					ans, err = e.QueryTraced(`for $b in doc("bib.xml")//book where $b/year > 1991 return $b/title`)
				case 3:
					_, tr, err = e.KeywordSearchTraced("", `book "Addison-Wesley"`)
				}
				if ans != nil {
					tr = ans.Trace
				}
				if err == nil && tr == nil {
					err = errors.New("traced call returned no trace")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func errorFromFeedback(ans *Answer) error {
	return &feedbackError{ans.Feedback}
}

type feedbackError struct{ fb []Feedback }

func (e *feedbackError) Error() string {
	var parts []string
	for _, f := range e.fb {
		parts = append(parts, f.String())
	}
	return "rejected: " + strings.Join(parts, "; ")
}
