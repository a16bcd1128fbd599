package nalix

import (
	"fmt"
	"strings"
	"time"

	"nalix/internal/obs"
)

// Trace is the observability record of one engine call: a tree of timed
// stage spans plus the call's deterministic counters (feedback codes,
// mqf pairs checked, ontology expansions). It is an immutable snapshot
// taken when the call finishes, safe to retain and to read from any
// goroutine. The *Traced engine methods return one: on Answer.Trace, as
// KeywordSearchTraced's second result, or inside a *TraceError.
type Trace struct {
	// Root is the top of the span tree ("ask", "translate", "query" or
	// "keyword", after the engine method that produced it).
	Root *TraceSpan
	// Counters holds the per-call counters, sorted by name.
	Counters []TraceCounter
	// Dropped reports span starts discarded because the call exceeded
	// the per-trace span bound.
	Dropped int
}

// TraceError is the error a failed *Traced call returns: the cause plus
// the call's finished trace, whose root carries an error= attribute.
// Error reports the cause's message unchanged.
type TraceError struct {
	Err   error
	Trace *Trace
}

func (e *TraceError) Error() string { return e.Err.Error() }

// Unwrap returns the cause.
func (e *TraceError) Unwrap() error { return e.Err }

// TraceSpan is one timed stage of a trace.
type TraceSpan struct {
	// Name identifies the stage (parse, classify, validate, translate,
	// plan, eval, mqf, serialize, ...).
	Name string
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// Attrs are deterministic stage facts (counts, labels) in the order
	// they were recorded — never timings.
	Attrs []TraceAttr
	// Children are the sub-stages, in start order.
	Children []*TraceSpan
}

// TraceAttr is one key/value annotation on a span.
type TraceAttr struct {
	Key   string
	Value string
}

// TraceCounter is one named per-trace counter value.
type TraceCounter struct {
	Name  string
	Value int64
}

// Render returns the indented span tree with timings — the explain
// surface the CLI prints for -explain.
func (t *Trace) Render() string {
	return t.render(true)
}

// Structure returns the span tree with names, attributes, and counters
// but without timings: the deterministic shape of a run. Two identical
// questions against the same engine yield identical structures.
func (t *Trace) Structure() string {
	return t.render(false)
}

func (t *Trace) render(withTime bool) string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	renderTraceSpan(&sb, t.Root, 0, withTime)
	for _, c := range t.Counters {
		fmt.Fprintf(&sb, "# %s = %d\n", c.Name, c.Value)
	}
	if withTime && t.Dropped > 0 {
		fmt.Fprintf(&sb, "# dropped_spans = %d\n", t.Dropped)
	}
	return sb.String()
}

func renderTraceSpan(sb *strings.Builder, s *TraceSpan, depth int, withTime bool) {
	if s == nil {
		return
	}
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(s.Name)
	if withTime {
		sb.WriteString(" ")
		sb.WriteString(s.Duration.String())
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(sb, " %s=%s", a.Key, a.Value)
	}
	sb.WriteString("\n")
	for _, c := range s.Children {
		renderTraceSpan(sb, c, depth+1, withTime)
	}
}

// convertTrace snapshots a finished internal trace into the public form.
func convertTrace(tr *obs.Trace) *Trace {
	if tr == nil {
		return nil
	}
	t := &Trace{
		Root:    convertSpan(tr.Root()),
		Dropped: tr.Dropped(),
	}
	for _, c := range tr.Counters() {
		t.Counters = append(t.Counters, TraceCounter{Name: c.Name, Value: c.Value})
	}
	return t
}

func convertSpan(sp *obs.Span) *TraceSpan {
	if sp == nil {
		return nil
	}
	s := &TraceSpan{Name: sp.Name(), Duration: sp.Duration()}
	for _, a := range sp.Attrs() {
		s.Attrs = append(s.Attrs, TraceAttr{Key: a.Key, Value: a.Value})
	}
	for _, c := range sp.Children() {
		s.Children = append(s.Children, convertSpan(c))
	}
	return s
}
