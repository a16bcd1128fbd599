package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nalix"
	"nalix/internal/cache"
	"nalix/internal/dataset"
	"nalix/internal/obs"
	"nalix/internal/server"
	"nalix/internal/xmldb"
)

// stack is one stood-up server: corpus, engine sessions, and the HTTP
// server on a loopback port, with the client that drives it.
type stack struct {
	doc     *xmldb.Document
	engines []*nalix.Engine
	srv     *server.Server
	hs      *http.Server // the traced run's wrapping server; nil otherwise
	served  chan error
	base    string
	client  *http.Client
	spans   *spanLog // nil unless traced
	closed  bool
}

// newStack builds the corpus and the engines and starts the server as
// nalix-serve's defaults configure it: sessions cached engines sharing
// one prewarmed document, one shard, the default slow-query and trace
// ring settings, no sampling, objectives or profiling. The access log
// goes to a discarding writer instead of stderr; the traced run keeps it
// in memory. A traced stack serves through a wrapper around the server's
// handler that records one span per request.
func newStack(scale, sessions int, traced bool) (*stack, error) {
	doc := dataset.Generate(scale)
	engines := make([]*nalix.Engine, sessions)
	for i := range engines {
		e := nalix.New()
		e.EnableCache(nalix.CacheConfig{})
		e.LoadDocument(doc)
		engines[i] = e
	}
	st := &stack{doc: doc, engines: engines, served: make(chan error, 1)}
	cfg := server.Config{
		Engines:       engines,
		SlowThreshold: server.DefaultSlowThreshold,
		SlowCapacity:  server.DefaultSlowCapacity,
		TraceCapacity: server.DefaultTraceCapacity,
		AccessLog:     io.Discard,
		Registry:      obs.NewRegistry(),
	}
	if traced {
		st.spans = &spanLog{t0: time.Now()}
		cfg.AccessLog = &st.spans.access
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	st.srv = srv
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	st.base = "http://" + l.Addr().String()
	if traced {
		st.hs = &http.Server{Handler: st.spans.wrap(srv.Handler())}
		go func() { st.served <- st.hs.Serve(l) }()
	} else {
		go func() { st.served <- srv.Serve(l) }()
	}
	conns := runtime.NumCPU()
	st.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return st, nil
}

// close drains the server, waits for its serve loop to end, and drops
// the client's idle connections. Closing twice is a no-op.
func (st *stack) close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if st.hs != nil {
		err = st.hs.Shutdown(ctx)
	} else {
		err = st.srv.Shutdown(ctx)
	}
	st.client.CloseIdleConnections()
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) {
		return fmt.Errorf("serve loop: %w", serr)
	}
	if err != nil {
		return fmt.Errorf("shutting down: %w", err)
	}
	return nil
}

// cacheStats sums the cache statistics of every session.
func (st *stack) cacheStats() nalix.CacheStats {
	var sum nalix.CacheStats
	for _, e := range st.engines {
		s := e.CacheStats()
		sum.Enabled = s.Enabled
		addLayer(&sum.Translation, s.Translation)
		addLayer(&sum.Plan, s.Plan)
		addLayer(&sum.Result, s.Result)
		sum.Singleflight.Execs += s.Singleflight.Execs
		sum.Singleflight.Shared += s.Singleflight.Shared
	}
	return sum
}

func addLayer(sum *nalix.CacheLayerStats, s nalix.CacheLayerStats) {
	sum.Hits += s.Hits
	sum.Misses += s.Misses
	sum.Evictions += s.Evictions
}

// wireAnswer is the part of a /ask response the check reads.
type wireAnswer struct {
	Accepted     bool     `json:"accepted"`
	FeedbackCode string   `json:"feedback_code"`
	Results      []string `json:"results"`
}

// exchange is one /ask round trip as the client saw it.
type exchange struct {
	sent, done time.Time
	reqID      string
	bytes      int
	ok         bool // status 200 and the answer matches its reference
}

// ask sends one question and reads the whole response. The exchange's
// done time is taken when the body has been read. A non-empty problem
// says why there is no answer to check.
func (st *stack) ask(q string) (ex exchange, body []byte, problem string) {
	req, err := json.Marshal(server.Request{Question: q})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	ex.sent = time.Now()
	resp, err := st.client.Post(st.base+"/ask", "application/json", bytes.NewReader(req))
	if err != nil {
		ex.done = time.Now()
		return ex, nil, err.Error()
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.done = time.Now()
	ex.reqID = resp.Header.Get("X-Request-Id")
	ex.bytes = len(body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return ex, nil, fmt.Sprintf("status %d, read error %v", resp.StatusCode, err)
	}
	return ex, body, ""
}

// verify checks a response body against the reference, counting the
// attempt. Study phrasings repeat within a run, with answers of up to
// about 1.5 MB, so the hash of each one's verified answer bytes is kept
// and a later body with the same hash passes without decoding. Lookups
// never repeat, so nothing is kept for them.
func (t *tally) verify(q question, body []byte, problem string) bool {
	if problem != "" {
		t.fail(q.Text, problem)
		return false
	}
	var sum [sha256.Size]byte
	if q.repeats() {
		sum = sha256.Sum256(answerBytes(body))
		t.mu.Lock()
		if seen, ok := t.verified[q.Text]; ok && seen == sum {
			t.attempted++
			t.mu.Unlock()
			return true
		}
		t.mu.Unlock()
	}
	var a wireAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		t.fail(q.Text, "decoding answer: "+err.Error())
		return false
	}
	if !t.check(q.Text, a.Accepted, a.FeedbackCode, a.Results) {
		return false
	}
	if q.repeats() {
		t.mu.Lock()
		if t.verified == nil {
			t.verified = map[string][sha256.Size]byte{}
		}
		t.verified[q.Text] = sum
		t.mu.Unlock()
	}
	return true
}

// answerBytes returns the part of an encoded server.Response that depends
// only on the question's answer: the fields from "endpoint" up to
// "count", without the request ID before them or the cache verdict and
// trace summary after. Quotes inside JSON strings are escaped, so the
// field names match only at the top level.
func answerBytes(body []byte) []byte {
	start := bytes.Index(body, []byte(`"endpoint":`))
	end := bytes.LastIndex(body, []byte(`,"count":`))
	if start < 0 || end < start {
		return body
	}
	return body[start:end]
}

// tally counts attempts and failures against the reference answers. It
// is safe for concurrent use.
type tally struct {
	refs      map[string]reference
	mu        sync.Mutex
	verified  map[string][sha256.Size]byte // study phrasing → hash of the answer bytes that passed
	attempted int
	failed    int
	phaseA    int // attempted at the last report
	phaseF    int
}

// check compares one answer with its reference and counts it.
func (t *tally) check(q string, accepted bool, code string, results []string) bool {
	ref, found := t.refs[cache.CanonicalQuery(q)]
	ok := found && ref.Digest == answerDigest(accepted, code, results)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: wrong answer to %q (reference found %v, %d results)\n", q, found, len(results))
		}
	}
	return ok
}

// fail counts one attempt that produced no answer.
func (t *tally) fail(q, why string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %q failed: %s\n", q, why)
	}
}

// report prints the requests sent, succeeded and failed since the last
// report.
func (t *tally) report(phase string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, f := t.attempted-t.phaseA, t.failed-t.phaseF
	t.phaseA, t.phaseF = t.attempted, t.failed
	fmt.Printf("phase %s: sent %d, succeeded %d, failed %d\n", phase, a, a-f, f)
}

// warmup asks every session its warm-up questions directly, one session
// after the other (one at a time keeps the cold evaluations from
// competing with each other and with the collector, so the time is
// steadier), and then sends a few of them over every client connection.
// Afterwards caches are filled, each question shape has run once per
// session, and connections are open.
func warmup(st *stack, p plan, t *tally) error {
	for i, eng := range st.engines {
		for _, q := range p.Warmup[i] {
			ans, err := eng.Ask("", q.Text)
			if err != nil {
				return fmt.Errorf("warm-up ask %q: %w", q.Text, err)
			}
			code := ""
			if !ans.Accepted {
				code = server.FirstErrorCode(ans.Feedback)
			}
			t.check(q.Text, ans.Accepted, code, ans.Results)
		}
	}
	var wg sync.WaitGroup
	conns := runtime.NumCPU()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qs := p.Warmup[c%len(p.Warmup)]
			for k := 0; k < 4 && k < len(qs); k++ {
				_, body, problem := st.ask(qs[k].Text)
				t.verify(qs[k], body, problem)
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// timedRun is what the timed phase measured: one exchange per stream
// entry sent, and the due time of each for the open loop.
type timedRun struct {
	start  time.Time
	open   bool
	stream []request
	ex     []exchange
	due    []time.Time
	sent   int       // one past the last stream entry sent
	lag    []float64 // generator lateness per sent request, ms
}

// drive runs the timed phase: open-loop Poisson arrivals over at most
// one connection per CPU for the study workload, closed-loop clients
// otherwise. Closed-loop clients stop sending at the deadline or when
// the stream runs out. Repeated study answers are checked by one
// verifier goroutine off the clients' path, so hashing large answers
// delays no send; lookup answers are kept and checked after the timed
// phase, so decoding them takes no CPU from the server.
func drive(st *stack, w *workload, stream []request, seconds float64, t *tally, spans *spanLog) *timedRun {
	r := &timedRun{open: w.study, stream: stream, ex: make([]exchange, len(stream)), due: make([]time.Time, len(stream))}
	workers := runtime.NumCPU()
	if !w.study && w.clients > 0 {
		workers = w.clients
	}
	type job struct {
		i       int
		body    []byte
		problem string
	}
	jobs := make(chan job, len(stream)) // one send per stream entry at most
	verified := make(chan struct{})
	var later []job
	go func() {
		defer close(verified)
		for j := range jobs {
			if stream[j.i].repeats() {
				r.ex[j.i].ok = t.verify(stream[j.i].question, j.body, j.problem)
			} else {
				later = append(later, j)
			}
		}
	}()

	lags := make([][]float64, workers)
	var next atomic.Int64
	r.start = time.Now()
	deadline := r.start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				var due time.Time
				if r.open {
					due = r.start.Add(time.Duration(stream[i].Due * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				} else {
					if time.Now().After(deadline) {
						return
					}
					due = time.Now()
				}
				ex, body, problem := st.ask(stream[i].Text)
				if r.open {
					lags[c] = append(lags[c], ms(ex.sent.Sub(due)))
				} else {
					lags[c] = append(lags[c], ms(ex.sent.Sub(prev)))
				}
				prev = ex.done
				r.ex[i], r.due[i] = ex, due
				spans.client(stream[i].Text, due, ex)
				jobs <- job{i, body, problem}
			}
		}(c)
	}
	wg.Wait()
	close(jobs)
	<-verified
	for _, j := range later {
		r.ex[j.i].ok = t.verify(stream[j.i].question, j.body, j.problem)
	}
	for _, l := range lags {
		r.lag = append(r.lag, l...)
	}
	for i := range r.ex {
		if !r.ex[i].sent.IsZero() {
			r.sent = i + 1
		}
	}
	return r
}

// latenciesMs returns every sent request's latency, from its due time in
// the open loop and from its send in the closed loop; a failed request
// counts as infinitely slow.
func (r *timedRun) latenciesMs() []float64 {
	var out []float64
	for i := 0; i < r.sent; i++ {
		ex := r.ex[i]
		if ex.sent.IsZero() {
			continue
		}
		if !ex.ok {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(ex.done.Sub(r.due[i])))
	}
	return out
}

// rps is the completed, correct asks per second of the timed phase.
func (r *timedRun) rps() float64 {
	var n int
	var last time.Time
	for i := 0; i < r.sent; i++ {
		ex := r.ex[i]
		if ex.ok {
			n++
		}
		if ex.done.After(last) {
			last = ex.done
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / last.Sub(r.start).Seconds()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
