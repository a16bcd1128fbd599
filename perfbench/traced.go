package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nalix"
	"nalix/internal/cache"
	"nalix/internal/core"
	"nalix/internal/nlp"
	"nalix/internal/obs"
	"nalix/internal/ontology"
	"nalix/internal/server"
	"nalix/internal/xmldb"
	"nalix/internal/xquery"
)

// span is one recorded interval. Spans of one request share Trace (the
// server's request ID; "replay-<n>" for the layer replay); Parent names
// the enclosing span.
type span struct {
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us,omitempty"` // since the start of the timed phase
	Dur    float64 `json:"dur_us"`
	Attr   string  `json:"attr,omitempty"`
}

// spanLog keeps the traced run's spans in memory until the run ends. Its
// methods are safe for concurrent use and no-ops on a nil log.
type spanLog struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	access bytes.Buffer // the server's access log; the server serializes writes
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) since(t time.Time) float64 {
	return float64(t.Sub(l.t0).Nanoseconds()) / 1e3
}

// wrap returns h with one "server.handler" span per request, keyed by
// the request ID the server sets.
func (l *spanLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		l.add(span{Trace: w.Header().Get("X-Request-Id"), Name: "server.handler", Parent: "client",
			Start: l.since(t0), Dur: us(d)})
	})
}

// client records a request's client span (send to body read) and, in
// the open loop, its wait from due time to send.
func (l *spanLog) client(q string, due time.Time, ex exchange) {
	if l == nil {
		return
	}
	l.add(span{Trace: ex.reqID, Name: "client", Start: l.since(ex.sent), Dur: us(ex.done.Sub(ex.sent)), Attr: q})
	if w := ex.sent.Sub(due); w > 0 {
		l.add(span{Trace: ex.reqID, Name: "loadgen.wait", Start: l.since(due), Dur: us(w)})
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// counts is the state the traced run differences across its timed phase.
type counts struct {
	cache nalix.CacheStats
	mem   runtime.MemStats
}

func snapshot(st *stack) counts {
	var c counts
	c.cache = st.cacheStats()
	runtime.ReadMemStats(&c.mem)
	return c
}

// runTraced is the per-layer run: an untraced pass on a fresh stack,
// then the same plan on a second fresh stack with spans recorded, then a
// single-threaded replay of the stream's questions through the layer
// entry points. Each pass drives half the run's seconds, so a traced run
// takes about as long as an untraced one. Spans and counts go to
// .bench_build/traces at exit.
func runTraced(w *workload, seed int64, seconds float64) (*result, error) {
	sessions := runtime.GOMAXPROCS(0)
	seconds /= 2
	in, err := prepare(w, seed, seconds, sessions)
	if err != nil {
		return nil, err
	}
	tally := &tally{refs: in.refs}

	st, _, _, err := standUp(w, in, false, true, tally)
	if err != nil {
		return nil, err
	}
	defer st.close()
	tally.report("warmup")
	plainRun := drive(st, w, in.plan.Stream, seconds, tally, nil)
	tally.report("untraced timed")
	if err := st.close(); err != nil {
		return nil, err
	}
	plain := plainRun.latenciesMs()

	st, _, _, err = standUp(w, in, true, true, tally)
	if err != nil {
		return nil, err
	}
	defer st.close()
	tally.report("warmup")
	runtime.GC()
	before := snapshot(st)
	run := drive(st, w, in.plan.Stream, seconds, tally, st.spans)
	after := snapshot(st)
	tally.report("traced timed")
	if err := st.close(); err != nil {
		return nil, err
	}
	tracedP50 := quantile(run.latenciesMs(), 0.5)

	live, err := parseAccess(&st.spans.access)
	if err != nil {
		return nil, err
	}
	rp := replay(st.doc, run, w.replay, tally, st.spans)
	tally.report("replay")

	m := layerMetrics(run, live, st.spans, before, after, rp)
	m["bench.trace_overhead_frac"] = metric{tracedP50/quantile(plain, 0.5) - 1, "ratio"}
	m["ask_p99_ms"] = metric{quantile(plain, 0.99), "ms"}
	m["fail_frac"] = metric{float64(tally.failed) / float64(tally.attempted), "ratio"}
	if err := writeTrace(w, seed, st.spans.spans, m); err != nil {
		return nil, err
	}
	return &result{Correct: tally.failed == 0, Attempted: tally.attempted, Failed: tally.failed, Metrics: m}, nil
}

// parseAccess indexes the access log by request ID.
func parseAccess(buf *bytes.Buffer) (map[string]server.AccessRecord, error) {
	out := map[string]server.AccessRecord{}
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec server.AccessRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("parsing access log: %w", err)
		}
		out[rec.RequestID] = rec
	}
	return out, sc.Err()
}

// replayed is one question's single-threaded pass through the layers.
type replayed struct {
	q                         string
	accepted                  bool
	parse, translate, self    float64 // µs; self = translate − parse
	compile                   float64 // µs
	eval, serialize, encode   float64 // ms
	cold                      bool    // first evaluation of its shape
	results                   int
	domEq, domStruct, domScan int64
	mqfPairs, mqfChecks       int64
}

// replay passes the first n distinct questions of the timed stream, in
// stream order, through the layer entry points on a fresh evaluator and
// translator with no caches: nlp.Parse, core Translate, xquery Compile
// and Eval, xmldb serialization plus FlattenValues, and the JSON
// encoding of the server's response. The translator hands its AST to
// Eval as the engine does; Compile of the printed query is timed
// alongside but is not on the /ask path.
func replay(doc *xmldb.Document, run *timedRun, n int, t *tally, spans *spanLog) []replayed {
	xe := xquery.NewEngine()
	xe.AddDocument(doc)
	tr := core.NewTranslator(doc, ontology.New())
	seenShape := map[string]bool{}
	seenQ := map[string]bool{}
	var out []replayed
	for i := 0; i < run.sent && len(out) < n; i++ {
		q := run.stream[i]
		if seenQ[cache.CanonicalQuery(q.Text)] {
			continue
		}
		seenQ[cache.CanonicalQuery(q.Text)] = true
		id := fmt.Sprintf("replay-%d", len(out))
		it := replayed{q: q.Text}

		t0 := time.Now()
		_, perr := nlp.Parse(q.Text)
		t1 := time.Now()
		res, err := tr.Translate(q.Text)
		t2 := time.Now()
		if perr != nil || err != nil {
			t.fail(q.Text, fmt.Sprintf("replay translate: %v %v", perr, err))
			continue
		}
		it.parse, it.translate = us(t1.Sub(t0)), us(t2.Sub(t1))
		it.self = max(it.translate-it.parse, 0)
		spans.add(span{Trace: id, Name: "nlp.parse", Parent: "core.translate", Dur: it.parse})
		spans.add(span{Trace: id, Name: "core.translate", Dur: it.translate, Attr: q.Text})

		ans := &nalix.Answer{Accepted: res.Valid(), XQuery: res.XQuery}
		for _, f := range res.Errors {
			ans.Feedback = append(ans.Feedback, nalix.Feedback{IsError: true, Code: string(f.Code), Term: f.Term, Message: f.Message, Suggestion: f.Suggestion})
		}
		for _, f := range res.Warnings {
			ans.Feedback = append(ans.Feedback, nalix.Feedback{Code: string(f.Code), Term: f.Term, Message: f.Message, Suggestion: f.Suggestion})
		}
		it.accepted = ans.Accepted
		if ans.Accepted {
			t3 := time.Now()
			if _, err := xe.Compile(res.XQuery); err != nil {
				t.fail(q.Text, "replay compile: "+err.Error())
				continue
			}
			t4 := time.Now()
			c0 := obs.Default.Snapshot()
			t5 := time.Now()
			seq, err := xe.Eval(res.Query)
			t6 := time.Now()
			c1 := obs.Default.Snapshot()
			if err != nil {
				t.fail(q.Text, "replay eval: "+err.Error())
				continue
			}
			for _, item := range seq {
				if v, ok := item.(xquery.NodeItem); ok {
					ans.Results = append(ans.Results, xmldb.SerializeString(v.Node))
				} else {
					ans.Results = append(ans.Results, xquery.AtomizeItem(item))
				}
			}
			ans.Values = xquery.FlattenValues(seq)
			t7 := time.Now()
			it.compile, it.eval, it.serialize = us(t4.Sub(t3)), ms(t6.Sub(t5)), ms(t7.Sub(t6))
			it.cold = !seenShape[q.Shape]
			seenShape[q.Shape] = true
			it.results = len(ans.Results)
			delta := func(name string) int64 { return c1.Counter(name) - c0.Counter(name) }
			it.domEq, it.domStruct, it.domScan = delta("xquery_domain_equality"), delta("xquery_domain_structural"), delta("xquery_domain_scan")
			it.mqfPairs, it.mqfChecks = delta("mqf_structural_pairs"), delta("mqf_related_checks")
			spans.add(span{Trace: id, Name: "xquery.compile", Dur: it.compile})
			spans.add(span{Trace: id, Name: "xquery.eval", Dur: it.eval * 1e3, Attr: fmt.Sprintf("cold=%v", it.cold)})
			spans.add(span{Trace: id, Name: "xmldb.serialize", Dur: it.serialize * 1e3})
		}
		code := ""
		if !ans.Accepted {
			code = server.FirstErrorCode(ans.Feedback)
		}
		t8 := time.Now()
		if _, err := json.Marshal(server.FromAnswer("ask", "", q.Text, ans)); err != nil {
			t.fail(q.Text, "replay encode: "+err.Error())
			continue
		}
		it.encode = ms(time.Since(t8))
		spans.add(span{Trace: id, Name: "server.encode", Dur: it.encode * 1e3})
		t.check(q.Text, ans.Accepted, code, ans.Results)
		out = append(out, it)
	}
	return out
}

// layerMetrics computes the per-layer metrics of a traced run.
func layerMetrics(run *timedRun, live map[string]server.AccessRecord, spans *spanLog, before, after counts, rp []replayed) map[string]metric {
	m := map[string]metric{}
	handler := map[string]float64{}
	for _, s := range spans.spans {
		if s.Name == "server.handler" {
			handler[s.Trace] = s.Dur / 1e3
		}
	}
	var hnd, outside, engine, transport, kb []float64
	missEngine := map[string]float64{} // canonical question → live engine ms of its cache miss
	for i := 0; i < run.sent; i++ {
		ex := run.ex[i]
		h, okH := handler[ex.reqID]
		rec, okR := live[ex.reqID]
		if !ex.ok || !okH || !okR {
			continue
		}
		e := float64(rec.DurationNs) / 1e6
		hnd = append(hnd, h)
		engine = append(engine, e)
		outside = append(outside, h-e)
		transport = append(transport, ms(ex.done.Sub(ex.sent))-h)
		kb = append(kb, float64(ex.bytes)/1024)
		if rec.Cache == "miss" {
			missEngine[cache.CanonicalQuery(run.stream[i].Text)] = e
		}
	}
	m["server.handler_ms_p50"] = metric{quantile(hnd, 0.5), "ms"}
	m["server.handler_ms_p99"] = metric{quantile(hnd, 0.99), "ms"}
	m["server.outside_engine_ms_p50"] = metric{quantile(outside, 0.5), "ms"}
	m["server.outside_engine_ms_p99"] = metric{quantile(outside, 0.99), "ms"}
	m["client.transport_ms_p50"] = metric{quantile(transport, 0.5), "ms"}
	m["server.response_kb_mean"] = metric{mean(kb), "KB"}
	m["nalix.engine_ms_p50"] = metric{quantile(engine, 0.5), "ms"}
	m["nalix.engine_ms_p99"] = metric{quantile(engine, 0.99), "ms"}

	layer := func(name string, b, a nalix.CacheLayerStats) {
		lookups := (a.Hits - b.Hits) + (a.Misses - b.Misses)
		ratio := 0.0
		if lookups > 0 {
			ratio = float64(a.Hits-b.Hits) / float64(lookups)
		}
		m["cache."+name+"_hit_ratio"] = metric{ratio, "ratio"}
		m["cache."+name+"_lookups"] = metric{float64(lookups), "count"}
	}
	layer("result", before.cache.Result, after.cache.Result)
	layer("translation", before.cache.Translation, after.cache.Translation)
	layer("plan", before.cache.Plan, after.cache.Plan)
	m["cache.result_evictions"] = metric{float64(after.cache.Result.Evictions - before.cache.Result.Evictions), "count"}
	m["cache.flight_shared"] = metric{float64(after.cache.Singleflight.Shared - before.cache.Singleflight.Shared), "count"}

	var parse, self, compile, warmEval, ser, enc, results []float64
	var rejected, evals, coldMax float64
	var eq, st, sc, prs, checks int64
	var replayed, liveSum float64 // warm replays of live cache misses
	for _, it := range rp {
		parse = append(parse, it.parse)
		self = append(self, it.self)
		enc = append(enc, it.encode)
		if !it.accepted {
			rejected++
		} else {
			evals++
			compile = append(compile, it.compile)
			ser = append(ser, it.serialize)
			results = append(results, float64(it.results))
			eq, st, sc = eq+it.domEq, st+it.domStruct, sc+it.domScan
			prs, checks = prs+it.mqfPairs, checks+it.mqfChecks
			if it.cold {
				coldMax = max(coldMax, it.eval)
			} else {
				warmEval = append(warmEval, it.eval)
			}
		}
		if e, ok := missEngine[cache.CanonicalQuery(it.q)]; ok && !it.cold {
			liveSum += e
			replayed += it.translate/1e3 + it.eval + it.serialize
		}
	}
	n := float64(len(rp))
	m["nlp.parse_us_p50"] = metric{quantile(parse, 0.5), "us"}
	m["core.translate_self_us_p50"] = metric{quantile(self, 0.5), "us"}
	m["core.rejected_frac"] = metric{rejected / max(n, 1), "ratio"}
	m["xquery.compile_us_p50"] = metric{quantile(compile, 0.5), "us"}
	m["xquery.eval_ms_p50"] = metric{quantile(warmEval, 0.5), "ms"}
	m["xquery.eval_ms_p90"] = metric{quantile(warmEval, 0.9), "ms"}
	m["xquery.cold_eval_ms_max"] = metric{coldMax, "ms"}
	perEval := func(v int64) float64 { return float64(v) / max(evals, 1) }
	m["xquery.domain_eq_per_eval"] = metric{perEval(eq), "count/eval"}
	m["xquery.domain_structural_per_eval"] = metric{perEval(st), "count/eval"}
	m["xquery.domain_scan_per_eval"] = metric{perEval(sc), "count/eval"}
	m["mqf.structural_pairs_per_eval"] = metric{perEval(prs), "count/eval"}
	m["mqf.related_checks_per_eval"] = metric{perEval(checks), "count/eval"}
	m["xmldb.serialize_ms_p50"] = metric{quantile(ser, 0.5), "ms"}
	m["xmldb.results_per_ask_mean"] = metric{mean(results), "count"}
	m["server.encode_ms_p50"] = metric{quantile(enc, 0.5), "ms"}

	asks := float64(len(hnd))
	gcs := float64(after.mem.NumGC - before.mem.NumGC)
	m["gc.cycles_per_kask"] = metric{1000 * gcs / max(asks, 1), "count/kask"}
	m["gc.pause_ms_total"] = metric{float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, "ms"}
	m["runtime.alloc_mb_per_ask"] = metric{float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / (1 << 20) / max(asks, 1), "MB/ask"}

	m["loadgen.lag_ms_p99"] = metric{quantile(append([]float64(nil), run.lag...), 0.99), "ms"}
	unattributed := 0.0
	if liveSum > 0 {
		unattributed = 1 - replayed/liveSum
	}
	m["replay.unattributed_frac"] = metric{unattributed, "ratio"}
	return m
}

// writeTrace writes the run's spans and per-layer metrics to
// .bench_build/traces/<workload>-seed<seed>.json.
func writeTrace(w *workload, seed int64, spans []span, m map[string]metric) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Metrics  map[string]metric `json:"metrics"`
		Spans    []span            `json:"spans"`
	}{w.name, seed, m, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed)), b, 0o644)
}
