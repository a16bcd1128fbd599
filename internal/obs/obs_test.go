package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := NewTrace("ask")
	root := tr.Root()
	p := root.Start("parse")
	p.SetInt("words", 9)
	p.End()
	ev := root.Start("eval")
	ev.AddChild("plan", 1500*time.Nanosecond).SetInt("clauses", 3)
	ev.Count("mqf_pairs_checked", 12)
	ev.End()
	tr.Finish()

	if got := len(root.Children()); got != 2 {
		t.Fatalf("root children = %d, want 2", got)
	}
	if name := root.Children()[0].Name(); name != "parse" {
		t.Fatalf("first child = %q, want parse", name)
	}
	if d := ev.Children()[0].Duration(); d != 1500*time.Nanosecond {
		t.Fatalf("aggregate child duration = %v, want 1.5µs", d)
	}
	cs := tr.Counters()
	if len(cs) != 1 || cs[0].Name != "mqf_pairs_checked" || cs[0].Value != 12 {
		t.Fatalf("counters = %+v", cs)
	}
	r := tr.Render()
	for _, want := range []string{"ask ", " words=9\n", "    plan 1.5µs clauses=3\n", "# mqf_pairs_checked = 12"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render missing %q:\n%s", want, r)
		}
	}
	if !strings.HasPrefix(strings.Split(r, "\n")[1], "  parse ") {
		t.Errorf("Render does not nest parse under the root:\n%s", r)
	}
}

// TestNilSafety drives every Trace/Span method through nil receivers:
// the disabled-tracing path of the pipeline.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	var sp *Span
	tr.Finish()
	tr.Count("x", 1)
	if tr.Root() != nil || tr.Counters() != nil || tr.Dropped() != 0 {
		t.Fatal("nil trace not inert")
	}
	if tr.Render() != "" {
		t.Fatal("nil trace renders content")
	}
	tr.ObserveInto(Default)
	c := sp.Start("x")
	if c != nil {
		t.Fatal("Start on nil span returned non-nil")
	}
	sp.End()
	sp.Set("k", "v")
	sp.SetInt("k", 1)
	sp.Count("k", 1)
	if sp.AddChild("x", time.Second) != nil {
		t.Fatal("AddChild on nil span returned non-nil")
	}
	if sp.Name() != "" || sp.Duration() != 0 || sp.Attrs() != nil || sp.Children() != nil {
		t.Fatal("nil span not inert")
	}
}

// TestDisabledPathAllocationFree is the zero-overhead contract: when
// tracing is off the pipeline holds nil spans, and operating on them
// must not allocate.
func TestDisabledPathAllocationFree(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		var sp *Span
		c := sp.Start("stage")
		c.Set("k", "v")
		c.SetInt("n", 42)
		c.Count("counter", 1)
		c.AddChild("agg", time.Millisecond)
		c.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-span operations allocate %.1f times per run, want 0", allocs)
	}
}

// TestObserveIntoStagePrefix: a finished trace feeds one stage_<name>_ns
// histogram per span, recorded for every span in the tree.
func TestObserveIntoStagePrefix(t *testing.T) {
	tr := NewTrace("ask")
	tr.Root().Start("parse").End()
	ev := tr.Root().Start("eval")
	ev.AddChild("plan", time.Microsecond)
	ev.End()
	tr.Finish()
	r := NewRegistry()
	tr.ObserveInto(r)
	snap := r.Snapshot()
	for _, name := range []string{"stage_ask_ns", "stage_parse_ns", "stage_eval_ns", "stage_plan_ns"} {
		h, ok := snap.Histogram(name)
		if !ok || h.Count != 1 {
			t.Errorf("histogram %s: ok=%v count=%d, want 1 observation", name, ok, h.Count)
		}
	}
	if len(snap.Histograms) != 4 {
		t.Errorf("histograms = %d, want 4", len(snap.Histograms))
	}
}

// TestTracedPathAllocationBound: spans are carved from per-trace arena
// blocks, so a block's worth of child spans costs at most a handful of
// allocations (arena block + children slice growth), not one per span.
func TestTracedPathAllocationBound(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		tr := NewTrace("ask")
		root := tr.Root()
		for i := 0; i < spanBlock-1; i++ {
			root.Start("stage").End()
		}
		tr.Finish()
	})
	// One alloc for the Trace, one for the arena block, and the root
	// children slice doublings (log2 of spanBlock-1 appends).
	if allocs > 8 {
		t.Fatalf("traced span tree allocates %.1f times per run, want <= 8", allocs)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	if r.Gauge("inflight") != g {
		t.Fatal("Gauge did not return the registered instance")
	}
	g.Add(3)
	g.Add(-1)
	if v := g.Value(); v != 2 {
		t.Fatalf("gauge = %d, want 2", v)
	}
	g.Set(7)
	snap := r.Snapshot()
	if v := snap.Gauge("inflight"); v != 7 {
		t.Fatalf("snapshot gauge = %d, want 7", v)
	}
	if v := snap.Gauge("absent"); v != 0 {
		t.Fatalf("absent gauge = %d, want 0", v)
	}
	var nilGauge *Gauge
	nilGauge.Add(1)
	nilGauge.Set(1)
	if nilGauge.Value() != 0 {
		t.Fatal("nil gauge not inert")
	}
}

func TestGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pool")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v != 0 {
		t.Fatalf("gauge = %d, want 0 after balanced adds", v)
	}
}

func TestSpanBound(t *testing.T) {
	tr := NewTrace("root")
	for i := 0; i < DefaultMaxSpans+10; i++ {
		tr.Root().Start("s").End()
	}
	if tr.Dropped() != 11 { // root counts toward the bound
		t.Fatalf("dropped = %d, want 11", tr.Dropped())
	}
}

func TestRegistryCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	fast := r.Counter("fast")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				fast.Add(1)
				r.Add("slow", 1)
				r.Observe("lat_ns", float64(i))
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if v := snap.Counter("fast"); v != 8000 {
		t.Fatalf("fast = %d, want 8000", v)
	}
	if v := snap.Counter("slow"); v != 8000 {
		t.Fatalf("slow = %d, want 8000", v)
	}
	h, ok := snap.Histogram("lat_ns")
	if !ok || h.Count != 8000 {
		t.Fatalf("histogram = %+v ok=%v", h, ok)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	for _, v := range []float64{0, 0.5, 1, 2, 3, 1024, 1 << 40, -5} {
		r.Observe("h", v)
	}
	h, ok := r.Snapshot().Histogram("h")
	if !ok {
		t.Fatal("histogram missing")
	}
	if h.Count != 7 { // the negative observation is ignored
		t.Fatalf("count = %d, want 7", h.Count)
	}
	if h.Min != 0 || h.Max != 1<<40 {
		t.Fatalf("min/max = %v/%v", h.Min, h.Max)
	}
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != h.Count {
		t.Fatalf("bucket total %d != count %d", total, h.Count)
	}
}

// TestSnapshotJSONDeterministic: the snapshot marshals to the same bytes
// every time and survives a round trip byte-identically.
func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Add("b_counter", 2)
	r.Add("a_counter", 1)
	r.Add(Labeled("queries_rejected", "code", "no-command"), 3)
	r.Observe("parse_ns", 1234)
	r.Observe("parse_ns", 999999)

	j1, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", j1, j2)
	}
	var round Snapshot
	if err := json.Unmarshal(j1, &round); err != nil {
		t.Fatal(err)
	}
	j3, err := round.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j3) {
		t.Fatalf("round trip differs:\n%s\n---\n%s", j1, j3)
	}
	// Sorted order: a_counter before b_counter before the labeled name.
	var names []string
	for _, c := range round.Counters {
		names = append(names, c.Name)
	}
	if len(names) != 3 || names[0] != "a_counter" || names[1] != "b_counter" {
		t.Fatalf("counter order = %v", names)
	}
}

func TestLabeled(t *testing.T) {
	if got := Labeled("feedback", "code", "pronoun"); got != "feedback{code=pronoun}" {
		t.Fatalf("Labeled = %q", got)
	}
}
