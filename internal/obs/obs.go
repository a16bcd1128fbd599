// Package obs is the runtime observability layer of the engine:
// hierarchical spans tracing one pipeline run (parse → classify →
// validate → translate → plan → eval → mqf), process-wide named
// counters, gauges and bounded histograms, and deterministic snapshot
// export (JSON and expvar).
//
// The package is built around a nil-tolerant API so the disabled path
// costs nothing: every method on a nil *Trace or nil *Span is a no-op
// that allocates nothing, which lets the pipeline thread an optional
// span through every stage unconditionally.
//
// A Trace (and the spans hanging off it) belongs to the goroutine that
// runs the traced call; it needs no internal locking. The pieces shared
// between goroutines — the Registry and the tail Sampler — are safe for
// concurrent use. The package keeps no traces: a finished trace goes
// back to whoever started it, and the HTTP server (internal/server) is
// the one component that samples and retains them.
//
// This package is runtime telemetry. It is distinct from
// internal/metrics, which holds the paper's retrieval-quality metrics
// (precision/recall, Sec. 5.1); see DESIGN.md for the split.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultMaxSpans bounds the spans one trace may record; children started
// beyond the bound are dropped (and counted) instead of growing without
// limit when a query degenerates.
const DefaultMaxSpans = 4096

// spanBlock is how many spans one arena allocation holds. Spans are
// carved from per-trace blocks so a typical traced query (one to two
// dozen spans) costs one or two allocations instead of one per span.
const spanBlock = 24

// Trace is the record of one traced pipeline run: a tree of spans plus
// per-trace counters. Construct with NewTrace; the zero value and nil are
// inert.
type Trace struct {
	root     *Span
	counters map[string]int64
	spans    int
	maxSpans int
	dropped  int
	// arena is the spare span storage newSpan carves from; spans stay
	// alive as long as the trace, so block allocation is safe.
	arena []Span
}

// NewTrace starts a new trace whose root span has the given name.
func NewTrace(name string) *Trace {
	t := &Trace{maxSpans: DefaultMaxSpans}
	t.root = t.newSpan(name)
	t.root.start = time.Now()
	return t
}

// newSpan carves the next span from the trace's arena, growing it by one
// block when exhausted, and counts it toward the span bound.
func (t *Trace) newSpan(name string) *Span {
	if len(t.arena) == 0 {
		t.arena = make([]Span, spanBlock)
	}
	s := &t.arena[0]
	t.arena = t.arena[1:]
	s.t = t
	s.name = name
	t.spans++
	return s
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span (and with it the whole trace). Open child
// spans are left with their recorded durations.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.root.End()
}

// Dropped reports how many span starts were discarded because the trace
// hit its span bound.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Count adds delta to a per-trace counter. Per-trace counters hold the
// deterministic deltas of one run (feedback codes, mqf pairs checked,
// ontology expansions), independent of the process-wide Registry.
func (t *Trace) Count(name string, delta int64) {
	if t == nil {
		return
	}
	if t.counters == nil {
		t.counters = make(map[string]int64)
	}
	t.counters[name] += delta
}

// Counter is one named per-trace counter value.
type Counter struct {
	Name  string
	Value int64
}

// Counters returns the per-trace counters sorted by name.
func (t *Trace) Counters() []Counter {
	if t == nil || len(t.counters) == 0 {
		return nil
	}
	var names []string
	for name := range t.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Counter, 0, len(names))
	for _, name := range names {
		out = append(out, Counter{Name: name, Value: t.counters[name]})
	}
	return out
}

// ObserveInto records every span's duration into the registry's
// "stage_<name>_ns" histogram, turning one finished trace into per-stage
// latency observations (stage_parse_ns, stage_eval_ns, ...). The stage_
// prefix namespaces pipeline-stage latencies apart from other latency
// histograms a registry may hold (the HTTP server's per-endpoint
// http_*_ns families). The whole tree is recorded under one registry
// lock acquisition instead of one per span.
func (t *Trace) ObserveInto(r *Registry) {
	if t == nil || r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var walk func(s *Span)
	walk = func(s *Span) {
		name := "stage_" + s.name + "_ns"
		h := r.hists[name]
		if h == nil {
			h = &Histogram{}
			r.hists[name] = h
		}
		h.observe(float64(s.dur.Nanoseconds()))
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(t.root)
}

// Span is one timed stage of a trace. Spans form a tree under the trace
// root; attributes carry deterministic stage facts (counts, labels),
// never timings. All methods are nil-safe no-ops.
type Span struct {
	t        *Trace
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Start opens a child span. On a nil receiver, or when the trace's span
// bound is reached, it returns nil (whose methods are all no-ops).
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	if s.t.spans >= s.t.maxSpans {
		s.t.dropped++
		return nil
	}
	c := s.t.newSpan(name)
	c.start = time.Now()
	s.children = append(s.children, c)
	return c
}

// AddChild attaches an already-measured child span with an explicit
// duration — the shape aggregate stages use (per-clause eval totals, mqf
// time) where one span summarizes many scattered slices of work.
func (s *Span) AddChild(name string, dur time.Duration) *Span {
	if s == nil {
		return nil
	}
	if s.t.spans >= s.t.maxSpans {
		s.t.dropped++
		return nil
	}
	c := s.t.newSpan(name)
	c.dur = dur
	c.ended = true
	s.children = append(s.children, c)
	return c
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
}

// Set attaches a string attribute.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// Count adds delta to the owning trace's per-trace counter.
func (s *Span) Count(name string, delta int64) {
	if s == nil {
		return
	}
	s.t.Count(name, delta)
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded duration (0 on nil or an unended span).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Attrs returns the span's attributes in the order they were set.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// Children returns the child spans in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// Render returns the indented span tree with timings — the explain
// surface of one trace.
func (t *Trace) Render() string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	renderSpan(&sb, t.root, 0)
	for _, c := range t.Counters() {
		fmt.Fprintf(&sb, "# %s = %d\n", c.Name, c.Value)
	}
	if t.dropped > 0 {
		fmt.Fprintf(&sb, "# dropped_spans = %d\n", t.dropped)
	}
	return sb.String()
}

func renderSpan(sb *strings.Builder, s *Span, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(s.name)
	sb.WriteString(" ")
	sb.WriteString(s.dur.String())
	for _, a := range s.attrs {
		fmt.Fprintf(sb, " %s=%s", a.Key, a.Value)
	}
	sb.WriteString("\n")
	for _, c := range s.children {
		renderSpan(sb, c, depth+1)
	}
}
