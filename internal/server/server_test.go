package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nalix"
	"nalix/internal/dataset"
	"nalix/internal/obs"
)

// acceptanceQuery exercises every pipeline stage against the bib corpus.
const acceptanceQuery = `Find all books published by "Addison-Wesley" after 1991.`

// rejectedQuery is outside the supported grammar and draws feedback.
const rejectedQuery = `Return every book as cheap as possible.`

// rawXQuery is a valid Schema-Free XQuery for POST /query.
const rawXQuery = `for $b in doc("bib.xml")//book where $b/year > 1991 return $b/title`

func bibXML(t testing.TB) string {
	t.Helper()
	var sb strings.Builder
	if err := dataset.WriteXML(&sb, dataset.Bib()); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func testEngines(t testing.TB, n int) []*nalix.Engine {
	t.Helper()
	xml := bibXML(t)
	engines := make([]*nalix.Engine, n)
	for i := range engines {
		e := nalix.New()
		if err := e.LoadXMLString("bib.xml", xml); err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return engines
}

// logBuffer is a concurrency-safe access-log sink. When the
// NALIX_TEST_LOGDIR environment variable is set (the CI artifact hook),
// every line is also teed to a file there so a failing run leaves the
// access log behind for upload.
type logBuffer struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	file *os.File
}

func newLogBuffer(t testing.TB) *logBuffer {
	t.Helper()
	lb := &logBuffer{}
	dir := os.Getenv("NALIX_TEST_LOGDIR")
	if dir == "" {
		return lb
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("NALIX_TEST_LOGDIR: %v", err)
		return lb
	}
	name := strings.ReplaceAll(t.Name(), "/", "_")
	f, err := os.Create(filepath.Join(dir, "access-"+name+".jsonl"))
	if err != nil {
		t.Logf("NALIX_TEST_LOGDIR: %v", err)
		return lb
	}
	lb.file = f
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Logf("closing access-log artifact: %v", err)
		}
	})
	return lb
}

func (lb *logBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if lb.file != nil {
		if _, err := lb.file.Write(p); err != nil {
			return 0, err
		}
	}
	return lb.buf.Write(p)
}

func (lb *logBuffer) Lines() []string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	s := strings.TrimRight(lb.buf.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// newTestServer stands up a server over fresh engine sessions with its
// own registry and access log, served through httptest.
func newTestServer(t testing.TB, sessions int, slow time.Duration) (*Server, *httptest.Server, *logBuffer, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	lb := newLogBuffer(t)
	srv, err := New(Config{
		Engines:       testEngines(t, sessions),
		SlowThreshold: slow,
		AccessLog:     lb,
		Registry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, lb, reg
}

func postJSON(t testing.TB, url string, body interface{}) (*http.Response, *Response) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, &out
}

func getBody(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServerConcurrentAcceptance is the acceptance test of the serving
// surface: 8 concurrent clients drive every API endpoint through the
// full handler stack (run with -race), then the observability artifacts
// are checked — a request ID on every response, exactly one well-formed
// JSONL access record per request, deterministic /metrics JSON with
// per-endpoint histograms, and a deliberately slow query in /debug/slow
// whose full trace is retrievable by ID.
func TestServerConcurrentAcceptance(t *testing.T) {
	// A 1ns threshold makes every request a "slow query", so the
	// deliberately heavy acceptance asks are guaranteed to be captured.
	_, ts, lb, reg := newTestServer(t, 4, time.Nanosecond)

	const clients = 8
	const perClient = 5
	type result struct {
		headerID string
		resp     *Response
		status   int
	}
	results := make(chan result, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var httpResp *http.Response
				var out *Response
				switch c % 4 {
				case 0:
					httpResp, out = postJSON(t, ts.URL+"/ask", Request{Question: acceptanceQuery})
				case 1:
					httpResp, out = postJSON(t, ts.URL+"/translate", Request{Question: acceptanceQuery})
				case 2:
					httpResp, out = postJSON(t, ts.URL+"/query", Request{Query: rawXQuery})
				case 3:
					httpResp, out = postJSON(t, ts.URL+"/keyword", Request{Question: `book "Addison-Wesley"`})
				}
				results <- result{
					headerID: httpResp.Header.Get("X-Request-Id"),
					resp:     out,
					status:   httpResp.StatusCode,
				}
			}
		}()
	}
	wg.Wait()
	close(results)

	// Every response carries a request ID, in both header and body.
	total := 0
	ids := make(map[string]bool)
	for r := range results {
		total++
		if r.status != http.StatusOK {
			t.Errorf("status = %d, want 200", r.status)
		}
		if r.headerID == "" {
			t.Error("response missing X-Request-Id header")
		}
		if r.resp.RequestID == "" {
			t.Error("response body missing request_id")
		}
		if r.headerID != r.resp.RequestID {
			t.Errorf("header ID %q != body ID %q", r.headerID, r.resp.RequestID)
		}
		if ids[r.resp.RequestID] {
			t.Errorf("duplicate request ID %q", r.resp.RequestID)
		}
		ids[r.resp.RequestID] = true
		if !r.resp.Accepted {
			t.Errorf("%s rejected: %+v", r.resp.Endpoint, r.resp.Feedback)
		}
		if r.resp.Endpoint != "keyword" && r.resp.Trace == nil {
			t.Errorf("%s response missing trace summary", r.resp.Endpoint)
		}
	}
	if total != clients*perClient {
		t.Fatalf("got %d results, want %d", total, clients*perClient)
	}

	// The access log holds exactly one well-formed JSONL record per
	// request, each matching a response's request ID.
	lines := lb.Lines()
	if len(lines) != total {
		t.Fatalf("access log has %d lines, want %d", len(lines), total)
	}
	for _, line := range lines {
		var rec AccessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("malformed access-log line %q: %v", line, err)
		}
		if !ids[rec.RequestID] {
			t.Errorf("access record ID %q matches no response", rec.RequestID)
		}
		delete(ids, rec.RequestID) // each ID must appear exactly once
		if rec.Status != http.StatusOK || !rec.Accepted {
			t.Errorf("access record = %+v, want 200/accepted", rec)
		}
		if rec.DurationNs <= 0 {
			t.Errorf("access record has no duration: %+v", rec)
		}
		if rec.Endpoint == "ask" && len(rec.Stages) == 0 {
			t.Errorf("ask access record has no stage latencies: %+v", rec)
		}
	}
	if len(ids) != 0 {
		t.Errorf("%d responses missing from the access log", len(ids))
	}

	// /metrics parses as deterministic JSON with per-endpoint latency
	// histograms, the in-flight gauge, and request counters.
	st1, m1 := getBody(t, ts.URL+"/metrics")
	st2, m2 := getBody(t, ts.URL+"/metrics")
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("/metrics status = %d/%d", st1, st2)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatalf("/metrics not deterministic:\n%s\n---\n%s", m1, m2)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(m1, &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	perEndpoint := map[string]int64{"ask": 0, "translate": 0, "query": 0, "keyword": 0}
	for endpoint := range perEndpoint {
		h, ok := snap.Histogram("http_" + endpoint + "_ns")
		if !ok {
			t.Errorf("/metrics missing histogram http_%s_ns", endpoint)
			continue
		}
		perEndpoint[endpoint] = h.Count
		if v := snap.Counter(obs.Labeled("http_requests_total", "endpoint", endpoint)); v != h.Count {
			t.Errorf("endpoint %s: counter %d != histogram count %d", endpoint, v, h.Count)
		}
	}
	var observed int64
	for _, n := range perEndpoint {
		observed += n
	}
	if observed != int64(total) {
		t.Errorf("per-endpoint histogram counts sum to %d, want %d", observed, total)
	}
	if reg.Gauge("http_inflight").Value() != 0 {
		t.Errorf("http_inflight = %d after drain, want 0", reg.Gauge("http_inflight").Value())
	}
	if _, ok := snap.Histogram("stage_parse_ns"); !ok {
		t.Error("/metrics missing pipeline stage histogram stage_parse_ns")
	}

	// The deliberately slow queries appear in /debug/slow, and a slow
	// entry's full trace is retrievable by its request ID.
	stSlow, slowBody := getBody(t, ts.URL+"/debug/slow")
	if stSlow != http.StatusOK {
		t.Fatalf("/debug/slow status = %d", stSlow)
	}
	var slow struct {
		ThresholdNs int64       `json:"threshold_ns"`
		Total       int64       `json:"total"`
		Entries     []SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(slowBody, &slow); err != nil {
		t.Fatalf("/debug/slow is not valid JSON: %v", err)
	}
	if slow.Total != int64(total) {
		t.Errorf("slow total = %d, want %d (threshold 1ns makes every request slow)", slow.Total, total)
	}
	if len(slow.Entries) == 0 {
		t.Fatal("/debug/slow has no entries")
	}
	var askEntry *SlowEntry
	for i := range slow.Entries {
		if slow.Entries[i].Endpoint == "ask" {
			askEntry = &slow.Entries[i]
		}
	}
	if askEntry == nil {
		t.Fatal("no ask entry in /debug/slow")
	}
	stTr, trBody := getBody(t, ts.URL+"/debug/traces/"+askEntry.RequestID)
	if stTr != http.StatusOK {
		t.Fatalf("/debug/traces/%s status = %d", askEntry.RequestID, stTr)
	}
	var full struct {
		RequestID string       `json:"request_id"`
		Trace     *nalix.Trace `json:"trace"`
		Rendered  string       `json:"rendered"`
	}
	if err := json.Unmarshal(trBody, &full); err != nil {
		t.Fatalf("trace response is not valid JSON: %v", err)
	}
	if full.RequestID != askEntry.RequestID {
		t.Errorf("trace request ID = %q, want %q", full.RequestID, askEntry.RequestID)
	}
	if full.Trace == nil || full.Trace.Root == nil || full.Trace.Root.Name != "ask" {
		t.Fatalf("retrieved trace malformed: %+v", full.Trace)
	}
	for _, stage := range []string{"parse", "eval", "serialize"} {
		if !strings.Contains(full.Rendered, stage) {
			t.Errorf("rendered trace missing stage %q:\n%s", stage, full.Rendered)
		}
	}
}

// TestRejectedQuestionObservability: a question outside the grammar is
// 200 OK with feedback, its code lands in the access record and in the
// http_errors counter family.
func TestRejectedQuestionObservability(t *testing.T) {
	_, ts, lb, reg := newTestServer(t, 1, -1)
	httpResp, out := postJSON(t, ts.URL+"/ask", Request{Question: rejectedQuery})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (rejection is a valid outcome)", httpResp.StatusCode)
	}
	if out.Accepted {
		t.Fatal("expected rejection")
	}
	if out.FeedbackCode == "" {
		t.Fatal("rejected response missing feedback_code")
	}
	lines := lb.Lines()
	if len(lines) != 1 {
		t.Fatalf("access log lines = %d, want 1", len(lines))
	}
	var rec AccessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.FeedbackCode != out.FeedbackCode {
		t.Errorf("access record code = %q, want %q", rec.FeedbackCode, out.FeedbackCode)
	}
	if v := reg.Snapshot().Counter(obs.Labeled("http_errors", "code", out.FeedbackCode)); v != 1 {
		t.Errorf("http_errors{code=%s} = %d, want 1", out.FeedbackCode, v)
	}
}

// failedTrace fetches /debug/traces/{id} for a failed request and
// asserts it serves the engine's span tree, its root tagged with the
// request's error.
func failedTrace(t *testing.T, base, id string) *nalix.Trace {
	t.Helper()
	status, body := getBody(t, base+"/debug/traces/"+id)
	if status != http.StatusOK {
		t.Fatalf("/debug/traces/%s status = %d: %s", id, status, body)
	}
	var out struct {
		Error    string       `json:"error"`
		Trace    *nalix.Trace `json:"trace"`
		Rendered string       `json:"rendered"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("trace response is not valid JSON: %v", err)
	}
	if out.Error == "" || out.Trace == nil || out.Trace.Root == nil {
		t.Fatalf("failed request %s: error %q, trace %+v: want both", id, out.Error, out.Trace)
	}
	var tagged string
	for _, a := range out.Trace.Root.Attrs {
		if a.Key == "error" {
			tagged = a.Value
		}
	}
	if tagged != out.Error || !strings.Contains(out.Rendered, "error=") {
		t.Errorf("trace root error = %q, want %q:\n%s", tagged, out.Error, out.Rendered)
	}
	return out.Trace
}

// TestTransportErrors: malformed bodies, unknown documents and malformed
// queries are observable failures — status, error counter, an access
// record, and for engine failures the error-tagged trace under the
// request ID.
func TestTransportErrors(t *testing.T) {
	_, ts, lb, reg := newTestServer(t, 1, -1)

	resp, err := http.Post(ts.URL+"/ask", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d, want 400", resp.StatusCode)
	}
	if out.Error == "" || out.RequestID == "" {
		t.Fatalf("error response = %+v, want error and request_id", out)
	}

	httpResp, out2 := postJSON(t, ts.URL+"/ask", Request{Document: "nope.xml", Question: acceptanceQuery})
	if httpResp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown document status = %d, want 422", httpResp.StatusCode)
	}
	if !strings.Contains(out2.Error, "nope.xml") {
		t.Fatalf("error = %q, want document name", out2.Error)
	}
	if tr := failedTrace(t, ts.URL, out2.RequestID); tr.Root.Name != "ask" {
		t.Errorf("failed ask trace root = %q, want ask", tr.Root.Name)
	}

	// A malformed query fails after its parse stage: the trace and the
	// access record both show that stage.
	httpResp, out3 := postJSON(t, ts.URL+"/query", Request{Query: "for $x in ((("})
	if httpResp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("malformed query status = %d, want 422", httpResp.StatusCode)
	}
	if tr := failedTrace(t, ts.URL, out3.RequestID); tr.Root.Name != "query" {
		t.Errorf("failed query trace root = %q, want query", tr.Root.Name)
	}

	snap := reg.Snapshot()
	if v := snap.Counter(obs.Labeled("http_errors", "code", "bad-request")); v != 1 {
		t.Errorf("http_errors{code=bad-request} = %d, want 1", v)
	}
	if v := snap.Counter(obs.Labeled("http_errors", "code", "engine")); v != 2 {
		t.Errorf("http_errors{code=engine} = %d, want 2", v)
	}
	lines := lb.Lines()
	if len(lines) != 3 {
		t.Fatalf("access log lines = %d, want 3 (errors are logged too)", len(lines))
	}
	var rec AccessRecord
	if err := json.Unmarshal([]byte(lines[2]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Error == "" || len(rec.Stages) == 0 || rec.Stages[0].Stage != "parse" {
		t.Errorf("failed query access record = %+v, want its error and parse stage", rec)
	}
}

// TestServerTimeouts: the server bounds how long a connection may take
// to send its headers and how long it may sit idle.
func TestServerTimeouts(t *testing.T) {
	srv, _, _, _ := newTestServer(t, 1, -1)
	if got := srv.http.ReadHeaderTimeout; got != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", got)
	}
	if got := srv.http.IdleTimeout; got != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", got)
	}
}

// TestHealthz: a loaded server is healthy; sessions and documents are
// reported.
func TestHealthz(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 2, -1)
	status, body := getBody(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz = %d, want 200: %s", status, body)
	}
	var h struct {
		Status    string   `json:"status"`
		Documents []string `json:"documents"`
		Sessions  int      `json:"sessions"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sessions != 2 || len(h.Documents) != 1 || h.Documents[0] != "bib.xml" {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestHealthzNoCorpus: a server over empty engines reports unavailable.
func TestHealthzNoCorpus(t *testing.T) {
	srv, err := New(Config{Engines: []*nalix.Engine{nalix.New()}, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, body := getBody(t, ts.URL+"/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503: %s", status, body)
	}
}

// TestTraceNotFound: an unknown trace ID is a JSON 404.
func TestTraceNotFound(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 1, -1)
	status, body := getBody(t, ts.URL+"/debug/traces/never-existed")
	if status != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", status)
	}
	if !json.Valid(body) {
		t.Fatalf("404 body is not JSON: %s", body)
	}
}

// TestSlowCaptureDisabled: a negative threshold disables the ring.
func TestSlowCaptureDisabled(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 1, -1)
	if _, out := postJSON(t, ts.URL+"/ask", Request{Question: acceptanceQuery}); !out.Accepted {
		t.Fatalf("rejected: %+v", out.Feedback)
	}
	_, body := getBody(t, ts.URL+"/debug/slow")
	var slow struct {
		Entries []SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Entries) != 0 {
		t.Fatalf("slow entries = %d with capture disabled, want 0", len(slow.Entries))
	}
}

// TestDebugVarsAndPprof: the stdlib operational surfaces are wired onto
// the server's own mux.
func TestDebugVarsAndPprof(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 1, -1)
	status, body := getBody(t, ts.URL+"/debug/vars")
	if status != http.StatusOK || !json.Valid(body) {
		t.Fatalf("/debug/vars status=%d valid=%v", status, json.Valid(body))
	}
	if !bytes.Contains(body, []byte("nalix_obs")) {
		t.Error("/debug/vars missing nalix_obs export")
	}
	status, _ = getBody(t, ts.URL+"/debug/pprof/cmdline")
	if status != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", status)
	}
}

// TestGracefulShutdown: Shutdown completes with in-flight work drained
// and the listener closed to new connections.
func TestGracefulShutdown(t *testing.T) {
	srv, err := New(Config{Engines: testEngines(t, 1), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	url := "http://" + l.Addr().String()

	if _, out := postJSON(t, url+"/ask", Request{Question: acceptanceQuery}); !out.Accepted {
		t.Fatalf("rejected: %+v", out.Feedback)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

// TestResponseSchemaRoundTrip: the wire schema round-trips, so the CLI's
// -json output and the server responses stay one shape.
func TestResponseSchemaRoundTrip(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 1, -1)
	_, out := postJSON(t, ts.URL+"/ask", Request{Question: acceptanceQuery})
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var round Response
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	if round.Endpoint != "ask" || round.Count != len(round.Results) || round.Trace == nil {
		t.Fatalf("round-tripped response malformed: %+v", round)
	}
	if round.Trace.TotalNs <= 0 {
		t.Errorf("trace summary total = %d, want > 0", round.Trace.TotalNs)
	}
	stages := make(map[string]bool)
	for _, s := range round.Trace.Stages {
		stages[s.Stage] = true
	}
	for _, want := range []string{"parse", "eval", "serialize"} {
		if !stages[want] {
			t.Errorf("trace summary missing stage %q: %+v", want, round.Trace.Stages)
		}
	}
}

// BenchmarkServeAsk measures the full HTTP request path: transport,
// handler envelope, engine, and observability.
func BenchmarkServeAsk(b *testing.B) {
	srv, err := New(Config{
		Engines:  testEngines(b, 4),
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, err := json.Marshal(Request{Question: acceptanceQuery})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/ask", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status = %d", resp.StatusCode)
		}
	}
}
