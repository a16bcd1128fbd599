// Package server is the HTTP serving surface of the engine: the four
// pipeline operations (ask, translate, query, keyword) as POST
// endpoints over a pool of engine sessions, with request-level
// observability — a generated request ID per request, a per-request
// pipeline trace (a failed call's included: the engine hands it back in
// a *nalix.TraceError), tail sampling and the one trace store, a
// structured JSONL access log, a bounded slow-query ring, and
// operational endpoints (/healthz, /metrics, /slo, /debug/cache,
// /debug/slow, /debug/traces, /debug/traces/<id>, /debug/profiles,
// /debug/pprof, /debug/vars).
//
// Engines obey the configure-then-query contract (see nalix.Engine):
// the caller configures every session before handing it to New, and the
// server only queries them afterwards. The pool bounds concurrent
// evaluations to the number of sessions; excess requests wait for a
// free session or their client's context, whichever ends first.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"nalix"
	"nalix/internal/obs"
	"nalix/internal/obs/slo"
)

// Defaults for Config zero values.
const (
	DefaultSlowThreshold = 500 * time.Millisecond
	DefaultSlowCapacity  = 64
	DefaultTraceCapacity = 256

	// maxBodyBytes bounds an API request body.
	maxBodyBytes = 1 << 20

	// healthTimeout bounds how long /healthz waits for a free session
	// before declaring the engine unresponsive.
	healthTimeout = 2 * time.Second

	// readHeaderTimeout bounds how long a connection may take to send
	// its request headers, so a client that never finishes them cannot
	// hold a goroutine and a socket indefinitely.
	readHeaderTimeout = 10 * time.Second

	// idleTimeout closes keep-alive connections idle this long.
	idleTimeout = 2 * time.Minute
)

// Config assembles a Server.
type Config struct {
	// Engines is the session pool: fully configured nalix engines, all
	// serving the same corpus. At least one is required. The server
	// points each engine's metrics registry at Registry, so per-stage
	// histograms and per-endpoint histograms land in one snapshot.
	Engines []*nalix.Engine

	// SlowThreshold is the total wall time at or above which a request
	// enters the slow-query ring. Zero means DefaultSlowThreshold;
	// negative disables the wall-time rule.
	SlowThreshold time.Duration

	// SlowStageThreshold additionally admits a request to the slow ring
	// when any single top-level pipeline stage runs at least this long —
	// a request that spends 400ms inside one stage is a slow query even
	// when its total squeaks under the wall-time threshold. Zero derives
	// half the effective SlowThreshold; negative disables the stage rule.
	SlowStageThreshold time.Duration

	// SlowCapacity bounds the slow-query ring (0 = default).
	SlowCapacity int

	// Sampling is the tail-based trace-retention policy behind
	// /debug/traces: the keep/drop decision for each request's trace is
	// made after completion, from its outcome (see obs.SamplerConfig).
	// Nil retains every trace — the historical behavior, which under
	// sustained load lets ordinary traffic evict the interesting tail.
	Sampling *obs.SamplerConfig

	// Objectives declares per-endpoint SLOs; non-empty enables the SLO
	// burn-rate engine, the /slo endpoint, and the nalix_slo_* metrics.
	Objectives []slo.Objective

	// SLOCheckInterval is how often the SLO engine re-evaluates its
	// alert conditions (0 = the engine's default, 1s).
	SLOCheckInterval time.Duration

	// Profile configures spike-triggered profiling capture (zero value
	// disables). A fast-burn SLO alert or a latency spike past the
	// rolling p99 captures CPU/goroutine/heap evidence into an on-disk
	// ring served at /debug/profiles.
	Profile ProfileConfig

	// TraceCapacity bounds the recent-trace ring that backs
	// /debug/traces/<id> (0 = default).
	TraceCapacity int

	// AccessLog receives one JSONL record per request (nil = discard).
	// The server serializes writes; the writer itself need not be
	// concurrency-safe.
	AccessLog io.Writer

	// Registry receives the server's metrics (nil = obs.Default).
	Registry *obs.Registry
}

// AccessRecord is one structured access-log line. Records are written
// as single-line JSON, one per request, in completion order.
type AccessRecord struct {
	Time         string         `json:"time"`
	RequestID    string         `json:"request_id"`
	Endpoint     string         `json:"endpoint"`
	Document     string         `json:"document,omitempty"`
	Question     string         `json:"question,omitempty"`
	Status       int            `json:"status"`
	Accepted     bool           `json:"accepted"`
	FeedbackCode string         `json:"feedback_code,omitempty"`
	Results      int            `json:"results"`
	Cache        string         `json:"cache,omitempty"`
	DurationNs   int64          `json:"duration_ns"`
	Stages       []StageLatency `json:"stages,omitempty"`
	Slow         bool           `json:"slow,omitempty"`
	// Sampled reports the tail-sampling verdict: whether this request's
	// trace was retained, and which rule kept it.
	Sampled      bool   `json:"sampled"`
	SampleReason string `json:"sample_reason,omitempty"`
	Error        string `json:"error,omitempty"`
}

// SlowEntry is one /debug/slow item: the request's identity and timing
// plus its trace summary; the full span tree is at /debug/traces/<id>.
type SlowEntry struct {
	RequestID  string `json:"request_id"`
	Endpoint   string `json:"endpoint"`
	Document   string `json:"document,omitempty"`
	Question   string `json:"question,omitempty"`
	Time       string `json:"time"`
	DurationNs int64  `json:"duration_ns"`
	// SlowStage/SlowStageNs name the slowest top-level pipeline stage —
	// what admitted the entry when the per-stage rule fired.
	SlowStage   string        `json:"slow_stage,omitempty"`
	SlowStageNs int64         `json:"slow_stage_ns,omitempty"`
	Trace       *TraceSummary `json:"trace,omitempty"`
}

// Server serves the engine over HTTP. Construct with New; start with
// Serve or ListenAndServe; stop with Shutdown (drains in-flight
// requests) or Close (does not).
type Server struct {
	pool     chan *nalix.Engine
	engines  []*nalix.Engine // all sessions, for stats aggregation
	sessions int
	reg      *obs.Registry
	slowAt   time.Duration
	stageAt  time.Duration
	sampler  *obs.Sampler // nil = retain every trace
	slo      *slo.Engine  // nil = no objectives declared
	profiler *profiler    // nil = profiling capture disabled
	store    *traceStore
	logMu    sync.Mutex
	logW     io.Writer
	inflight *obs.Gauge
	idPrefix string
	idSeq    atomic.Int64
	mux      *http.ServeMux
	http     *http.Server
}

// New assembles a server from configured engine sessions. The engines
// must be fully configured (documents loaded, synonyms added): New
// points their metrics registries at cfg.Registry and the server
// queries them concurrently afterwards.
func New(cfg Config) (*Server, error) {
	if len(cfg.Engines) == 0 {
		return nil, fmt.Errorf("server: at least one engine session is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	slowAt := cfg.SlowThreshold
	if slowAt == 0 {
		slowAt = DefaultSlowThreshold
	}
	stageAt := cfg.SlowStageThreshold
	if stageAt == 0 && slowAt > 0 {
		stageAt = slowAt / 2
	}
	slowCap := cfg.SlowCapacity
	if slowCap <= 0 {
		slowCap = DefaultSlowCapacity
	}
	traceCap := cfg.TraceCapacity
	if traceCap <= 0 {
		traceCap = DefaultTraceCapacity
	}
	logW := cfg.AccessLog
	if logW == nil {
		logW = io.Discard
	}
	var pfx [4]byte
	if _, err := rand.Read(pfx[:]); err != nil {
		return nil, fmt.Errorf("server: seeding request IDs: %w", err)
	}
	s := &Server{
		pool:     make(chan *nalix.Engine, len(cfg.Engines)),
		engines:  append([]*nalix.Engine(nil), cfg.Engines...),
		sessions: len(cfg.Engines),
		reg:      reg,
		slowAt:   slowAt,
		stageAt:  stageAt,
		store:    newTraceStore(traceCap, slowCap),
		logW:     logW,
		inflight: reg.Gauge("http_inflight"),
		idPrefix: hex.EncodeToString(pfx[:]),
	}
	if cfg.Sampling != nil {
		s.sampler = obs.NewSampler(*cfg.Sampling)
	}
	prof, err := newProfiler(cfg.Profile, reg)
	if err != nil {
		return nil, err
	}
	s.profiler = prof
	if len(cfg.Objectives) > 0 {
		eng, err := slo.New(slo.Config{
			Objectives:    cfg.Objectives,
			CheckInterval: cfg.SLOCheckInterval,
			Registry:      reg,
			OnFastBurn: func(r slo.ObjectiveReport) {
				// A fast-burn alert is the error budget being destroyed
				// right now: capture profiling evidence immediately.
				reg.Add(obs.Labeled("slo_fast_burn_fired", "objective", r.Name), 1)
				s.profiler.trigger("fast-burn:" + r.Name)
			},
		})
		if err != nil {
			return nil, err
		}
		s.slo = eng
	}
	for _, eng := range cfg.Engines {
		eng.SetMetricsRegistry(reg)
		s.pool <- eng
	}
	s.mux = http.NewServeMux()
	s.routes()
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /ask", s.api("ask", func(eng *nalix.Engine, req *Request) (*Response, *nalix.Trace, error) {
		ans, err := eng.AskTraced(req.Document, req.Question)
		if err != nil {
			return nil, nil, err
		}
		resp := FromAnswer("ask", req.Document, req.Question, ans)
		if eng.CacheEnabled() {
			resp.Cache = "miss"
			if ans.Cached {
				resp.Cache = "hit"
			}
		}
		return resp, ans.Trace, nil
	}))
	s.mux.HandleFunc("POST /translate", s.api("translate", func(eng *nalix.Engine, req *Request) (*Response, *nalix.Trace, error) {
		ans, err := eng.TranslateTraced(req.Document, req.Question)
		if err != nil {
			return nil, nil, err
		}
		return FromAnswer("translate", req.Document, req.Question, ans), ans.Trace, nil
	}))
	s.mux.HandleFunc("POST /query", s.api("query", func(eng *nalix.Engine, req *Request) (*Response, *nalix.Trace, error) {
		ans, err := eng.QueryTraced(req.Query)
		if err != nil {
			return nil, nil, err
		}
		return FromAnswer("query", req.Document, req.Query, ans), ans.Trace, nil
	}))
	s.mux.HandleFunc("POST /keyword", s.api("keyword", func(eng *nalix.Engine, req *Request) (*Response, *nalix.Trace, error) {
		q := req.Question
		if q == "" {
			q = req.Query
		}
		hits, tr, err := eng.KeywordSearchTraced(req.Document, q)
		if err != nil {
			return nil, nil, err
		}
		return FromKeyword(req.Document, q, hits, tr), tr, nil
	}))

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /slo", s.handleSLO)
	s.mux.HandleFunc("GET /debug/cache", s.handleCache)
	s.mux.HandleFunc("GET /debug/slow", s.handleSlow)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /debug/profiles", s.handleProfiles)
	s.mux.HandleFunc("GET /debug/profiles/{name}/{file}", s.handleProfileFile)

	// Standard-library operational surfaces: pprof and expvar, wired
	// onto this mux so a server never depends on http.DefaultServeMux.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
}

// Handler returns the server's HTTP handler — the hook tests and
// embedders use to serve it through their own http.Server.
func (s *Server) Handler() http.Handler {
	return s.mux
}

// Sessions reports the size of the engine-session pool.
func (s *Server) Sessions() int {
	return s.sessions
}

// nextID mints a request ID: a per-process random prefix plus a
// monotonic sequence number, unique within and across restarts.
func (s *Server) nextID() string {
	return fmt.Sprintf("%s-%06d", s.idPrefix, s.idSeq.Add(1))
}

// checkout borrows an engine session from the pool, giving up when the
// context ends first.
func (s *Server) checkout(ctx context.Context) (*nalix.Engine, error) {
	select {
	case eng := <-s.pool:
		return eng, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// api wraps one engine operation in the request-level observability
// envelope: request ID, in-flight gauge, session checkout, per-endpoint
// latency histogram, error counters, trace retention, slow capture, and
// the access-log record.
func (s *Server) api(endpoint string, run func(*nalix.Engine, *Request) (*Response, *nalix.Trace, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.nextID()
		w.Header().Set("X-Request-Id", id)
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		s.reg.Add(obs.Labeled("http_requests_total", "endpoint", endpoint), 1)

		now := time.Now()
		rec := &AccessRecord{
			Time:      now.UTC().Format(time.RFC3339Nano),
			RequestID: id,
			Endpoint:  endpoint,
		}

		var req Request
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
			s.reg.Add(obs.Labeled("http_errors", "code", "bad-request"), 1)
			s.fail(w, rec, http.StatusBadRequest, id, endpoint, fmt.Errorf("decoding request body: %w", err))
			return
		}
		rec.Document = req.Document
		rec.Question = req.Question
		if rec.Question == "" {
			rec.Question = req.Query
		}

		eng, err := s.checkout(r.Context())
		if err != nil {
			s.reg.Add(obs.Labeled("http_errors", "code", "unavailable"), 1)
			s.fail(w, rec, http.StatusServiceUnavailable, id, endpoint, fmt.Errorf("no engine session available: %w", err))
			return
		}
		start := time.Now()
		resp, tr, err := run(eng, &req)
		dur := time.Since(start)
		s.pool <- eng

		rec.DurationNs = dur.Nanoseconds()
		if s.slo != nil {
			// Feedback rejections are the system working as designed
			// (the paper's reformulation loop), so they count as good;
			// only engine/transport failures and slow requests burn
			// error budget.
			s.slo.Record(endpoint, dur, err != nil)
		}
		s.profiler.note(dur)

		feedbackCode := ""
		if err == nil && !resp.Accepted {
			feedbackCode = resp.FeedbackCode
		}
		// The tail-sampling verdict: made after completion, from the
		// outcome. Without a policy every trace is retained.
		verdict := obs.Verdict{Keep: true, Reason: "all"}
		if s.sampler != nil {
			verdict = s.sampler.Decide(dur, err != nil, feedbackCode)
		}
		rec.Sampled = verdict.Keep
		rec.SampleReason = verdict.Reason
		if verdict.Keep {
			s.reg.Add(obs.Labeled("http_sampled", "reason", verdict.Reason), 1)
			// Kept traces become exemplars: the histogram bucket of this
			// latency now links to a trace that is actually retrievable.
			s.reg.ObserveExemplar("http_"+endpoint+"_ns", float64(dur.Nanoseconds()), id)
		} else {
			s.reg.Observe("http_"+endpoint+"_ns", float64(dur.Nanoseconds()))
		}

		var sum *TraceSummary
		var errText string
		if err != nil {
			// A failed call hands its trace back inside the error.
			var te *nalix.TraceError
			if errors.As(err, &te) {
				tr = te.Trace
			}
			sum = SummarizeTrace(tr)
			errText = err.Error()
		} else {
			sum = resp.Trace
		}
		slow, slowStage, slowStageNs := s.slowVerdict(dur, sum)
		s.store.add(&traceEntry{
			ID:           id,
			Endpoint:     endpoint,
			Document:     req.Document,
			Question:     rec.Question,
			Time:         now,
			Duration:     dur,
			Trace:        tr,
			SampleReason: verdict.Reason,
			SlowStage:    slowStage,
			SlowStageNs:  slowStageNs,
			Error:        errText,
		}, verdict.Keep, slow)
		rec.Slow = slow
		if sum != nil {
			rec.Stages = sum.Stages
		}
		if err != nil {
			s.reg.Add(obs.Labeled("http_errors", "code", "engine"), 1)
			s.fail(w, rec, http.StatusUnprocessableEntity, id, endpoint, err)
			return
		}
		resp.RequestID = id
		if resp.Cache != "" {
			w.Header().Set("X-Nalix-Cache", resp.Cache)
			s.reg.Add(obs.Labeled("http_cache", "result", resp.Cache), 1)
		}

		rec.Status = http.StatusOK
		rec.Accepted = resp.Accepted
		rec.FeedbackCode = resp.FeedbackCode
		rec.Results = resp.Count
		rec.Cache = resp.Cache
		if !resp.Accepted && resp.FeedbackCode != "" {
			s.reg.Add(obs.Labeled("http_errors", "code", resp.FeedbackCode), 1)
		}
		s.logRecord(rec)
		writeJSON(w, http.StatusOK, resp)
	}
}

// slowVerdict decides slow-ring admission: total wall time at/above the
// wall-time threshold, or any single top-level pipeline stage at/above
// the per-stage threshold — the stage rule catches requests whose total
// squeaks under the wall threshold while one stage dominates it. The
// slowest stage is reported either way, so slow entries name their
// bottleneck.
func (s *Server) slowVerdict(total time.Duration, sum *TraceSummary) (bool, string, int64) {
	var stage string
	var stageNs int64
	if sum != nil {
		for _, st := range sum.Stages {
			if st.Ns > stageNs {
				stage, stageNs = st.Stage, st.Ns
			}
		}
	}
	slow := s.slowAt > 0 && total >= s.slowAt
	if !slow && s.stageAt > 0 && stageNs >= s.stageAt.Nanoseconds() {
		slow = true
	}
	return slow, stage, stageNs
}

// fail records and writes an error response.
func (s *Server) fail(w http.ResponseWriter, rec *AccessRecord, status int, id, endpoint string, err error) {
	rec.Status = status
	rec.Error = err.Error()
	s.logRecord(rec)
	writeJSON(w, status, &Response{
		RequestID: id,
		Endpoint:  endpoint,
		Error:     err.Error(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// The header is gone; nothing useful can be written anymore.
		return
	}
}

// logRecord writes one access-log line. Writes are serialized under
// logMu so each record lands as one intact JSONL line; a record is
// flushed before its response is sent, so a drained server's log is
// complete. An unwritable access log must not take down serving, so
// write failures drop the line.
func (s *Server) logRecord(rec *AccessRecord) {
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if _, err := s.logW.Write(b); err != nil {
		return
	}
}

// handleHealthz reports liveness: a session can be borrowed within the
// health timeout, a corpus is loaded, and the engine answers a trivial
// query.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status    string   `json:"status"`
		Documents []string `json:"documents,omitempty"`
		Sessions  int      `json:"sessions"`
		Reason    string   `json:"reason,omitempty"`
	}
	ctx, cancel := context.WithTimeout(r.Context(), healthTimeout)
	defer cancel()
	eng, err := s.checkout(ctx)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, &health{
			Status: "unavailable", Sessions: s.sessions,
			Reason: "no engine session became free in time",
		})
		return
	}
	docs := eng.Documents()
	var probeErr error
	if len(docs) == 0 {
		probeErr = fmt.Errorf("no corpus loaded")
	} else if _, err := eng.Query("1"); err != nil {
		probeErr = fmt.Errorf("probe query failed: %w", err)
	}
	s.pool <- eng
	if probeErr != nil {
		writeJSON(w, http.StatusServiceUnavailable, &health{
			Status: "unavailable", Documents: docs, Sessions: s.sessions,
			Reason: probeErr.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, &health{Status: "ok", Documents: docs, Sessions: s.sessions})
}

// handleMetrics serves the registry snapshot: deterministic JSON with
// the per-endpoint latency histograms (http_<endpoint>_ns), pipeline
// stage histograms (stage_<name>_ns), the http_inflight gauge, and the
// error counters (http_errors{code=...}).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b, err := s.reg.Snapshot().JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(b); err != nil {
		return
	}
}

// handleCache serves the cache telemetry of the engine pool: per-session
// layer statistics (each session owns its caches) plus their sum. Stats
// are atomic snapshots, safe to read while sessions serve queries.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Enabled  bool               `json:"enabled"`
		Sessions int                `json:"sessions"`
		Total    nalix.CacheStats   `json:"total"`
		Detail   []nalix.CacheStats `json:"per_session,omitempty"`
	}{Sessions: s.sessions}
	for _, eng := range s.engines {
		st := eng.CacheStats()
		if !st.Enabled {
			continue
		}
		out.Enabled = true
		out.Detail = append(out.Detail, st)
		mergeLayer(&out.Total.Translation, st.Translation)
		mergeLayer(&out.Total.Plan, st.Plan)
		mergeLayer(&out.Total.Result, st.Result)
		out.Total.Singleflight.Execs += st.Singleflight.Execs
		out.Total.Singleflight.Shared += st.Singleflight.Shared
	}
	out.Total.Enabled = out.Enabled
	writeJSON(w, http.StatusOK, out)
}

// mergeLayer accumulates one session's layer statistics into a total.
func mergeLayer(total *nalix.CacheLayerStats, st nalix.CacheLayerStats) {
	total.Name = st.Name
	total.Hits += st.Hits
	total.Misses += st.Misses
	total.Evictions += st.Evictions
	total.Entries += st.Entries
	total.Bytes += st.Bytes
	total.MaxBytes += st.MaxBytes
}

// handleSlow serves the slow-query ring, oldest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	entries, total := s.store.slowEntries()
	out := struct {
		ThresholdNs      int64       `json:"threshold_ns"`
		StageThresholdNs int64       `json:"stage_threshold_ns"`
		Total            int64       `json:"total"`
		Entries          []SlowEntry `json:"entries"`
	}{
		ThresholdNs:      s.slowAt.Nanoseconds(),
		StageThresholdNs: s.stageAt.Nanoseconds(),
		Total:            total,
		Entries:          []SlowEntry{},
	}
	for _, e := range entries {
		out.Entries = append(out.Entries, SlowEntry{
			RequestID:   e.ID,
			Endpoint:    e.Endpoint,
			Document:    e.Document,
			Question:    e.Question,
			Time:        e.Time.UTC().Format(time.RFC3339Nano),
			DurationNs:  e.Duration.Nanoseconds(),
			SlowStage:   e.SlowStage,
			SlowStageNs: e.SlowStageNs,
			Trace:       SummarizeTrace(e.Trace),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSLO serves the burn-rate report of the declared objectives.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		writeJSON(w, http.StatusOK, struct {
			Enabled bool `json:"enabled"`
		}{false})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Enabled bool `json:"enabled"`
		slo.Report
	}{true, s.slo.Report()})
}

// TraceListEntry is one row of the /debug/traces listing.
type TraceListEntry struct {
	RequestID    string `json:"request_id"`
	Endpoint     string `json:"endpoint"`
	Time         string `json:"time"`
	DurationNs   int64  `json:"duration_ns"`
	SampleReason string `json:"sample_reason,omitempty"`
	Error        string `json:"error,omitempty"`
}

// handleTraceList serves the kept-trace ring, oldest first, plus the
// sampler's decision accounting — the surface that shows what the
// retention policy is actually keeping.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	entries, total := s.store.keptEntries()
	out := struct {
		Total   int64             `json:"total_kept"`
		Sampler *obs.SamplerStats `json:"sampler,omitempty"`
		Entries []TraceListEntry  `json:"entries"`
	}{Total: total, Entries: []TraceListEntry{}}
	if s.sampler != nil {
		st := s.sampler.Stats()
		out.Sampler = &st
	}
	for _, e := range entries {
		out.Entries = append(out.Entries, TraceListEntry{
			RequestID:    e.ID,
			Endpoint:     e.Endpoint,
			Time:         e.Time.UTC().Format(time.RFC3339Nano),
			DurationNs:   e.Duration.Nanoseconds(),
			SampleReason: e.SampleReason,
			Error:        e.Error,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleProfiles lists the capture ring.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if s.profiler == nil {
		writeJSON(w, http.StatusOK, struct {
			Enabled  bool          `json:"enabled"`
			Captures []CaptureInfo `json:"captures"`
		}{false, []CaptureInfo{}})
		return
	}
	caps := s.profiler.list()
	if caps == nil {
		caps = []CaptureInfo{}
	}
	writeJSON(w, http.StatusOK, struct {
		Enabled  bool          `json:"enabled"`
		Captures []CaptureInfo `json:"captures"`
	}{true, caps})
}

// handleProfileFile serves one captured artifact (cpu.pprof, heap.pprof,
// goroutine.txt, meta.json) by capture name.
func (s *Server) handleProfileFile(w http.ResponseWriter, r *http.Request) {
	name, file := r.PathValue("name"), r.PathValue("file")
	if s.profiler == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "profiling capture is disabled"})
		return
	}
	path, ok := s.profiler.open(name, file)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": fmt.Sprintf("no capture file %s/%s", name, file),
		})
		return
	}
	http.ServeFile(w, r, path)
}

// handleTrace serves one retained request's full span tree by ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := s.store.byID(id)
	if e == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": fmt.Sprintf("no retained trace for request ID %q", id),
		})
		return
	}
	out := struct {
		RequestID    string       `json:"request_id"`
		Endpoint     string       `json:"endpoint"`
		Document     string       `json:"document,omitempty"`
		Question     string       `json:"question,omitempty"`
		Time         string       `json:"time"`
		DurationNs   int64        `json:"duration_ns"`
		SampleReason string       `json:"sample_reason,omitempty"`
		Error        string       `json:"error,omitempty"`
		Trace        *nalix.Trace `json:"trace"`
		Rendered     string       `json:"rendered"`
	}{
		RequestID:    e.ID,
		Endpoint:     e.Endpoint,
		Document:     e.Document,
		Question:     e.Question,
		Time:         e.Time.UTC().Format(time.RFC3339Nano),
		DurationNs:   e.Duration.Nanoseconds(),
		SampleReason: e.SampleReason,
		Error:        e.Error,
		Trace:        e.Trace,
		Rendered:     e.Trace.Render(),
	}
	writeJSON(w, http.StatusOK, out)
}

// Serve accepts connections on l until Shutdown or Close.
func (s *Server) Serve(l net.Listener) error {
	return s.http.Serve(l)
}

// ListenAndServe listens on addr and serves until Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully stops the server: it stops accepting connections
// and waits for in-flight requests to drain (bounded by ctx). Access-log
// records are written synchronously before each response, so a drained
// server leaves a complete log behind.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

// Close stops the server immediately without draining.
func (s *Server) Close() error {
	return s.http.Close()
}
