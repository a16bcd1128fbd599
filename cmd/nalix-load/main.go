// Command nalix-load drives the HTTP serving surface with concurrent
// clients and reports latency percentiles. It either targets a running
// nalix-serve (-url) or spins up an in-process server (-self), so the
// committed BENCH_serve.json can be regenerated without external
// orchestration:
//
//	go run ./cmd/nalix-load -self -n 500 -c 8 -out BENCH_serve.json
//	go run ./cmd/nalix-load -url http://localhost:8080 -endpoint ask -n 1000
//	go run ./cmd/nalix-load -self -n 2000 -c 16 -slo-report
//
// The request schema is internal/server.Request and responses are
// internal/server.Response — the same shapes `nalix -json` emits.
// -slo-report fetches /slo after the run and embeds the burn-rate
// report in the result (a -self server declares a default objective for
// the driven endpoint; repeat -slo to declare others).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nalix"
	"nalix/internal/dataset"
	"nalix/internal/obs"
	"nalix/internal/obs/slo"
	"nalix/internal/server"
	"nalix/internal/xmldb"
)

// objectiveFlags is a repeatable -slo flag for the -self server.
type objectiveFlags []slo.Objective

func (o *objectiveFlags) String() string {
	var parts []string
	for _, obj := range *o {
		parts = append(parts, obj.Name)
	}
	return strings.Join(parts, ",")
}

func (o *objectiveFlags) Set(s string) error {
	obj, err := slo.ParseObjective(s)
	if err != nil {
		return err
	}
	*o = append(*o, obj)
	return nil
}

func main() {
	url := flag.String("url", "", "base URL of a running nalix-serve (empty with -self)")
	self := flag.Bool("self", false, "spin up an in-process server instead of targeting -url")
	corpus := flag.String("corpus", "bib", "corpus for -self: movies, library, bib or dblp")
	scale := flag.Int("scale", 1, "corpus scale for -self -corpus dblp (1 ≈ 73k nodes, 14 ≈ 1M, 140 ≈ 10M)")
	shards := flag.Int("shards", 1, "windows each -self query evaluation is split into; >1 evaluates them in parallel")
	sessions := flag.Int("sessions", runtime.GOMAXPROCS(0), "engine sessions for -self")
	endpoint := flag.String("endpoint", "ask", "endpoint to drive: ask, translate, query or keyword")
	question := flag.String("question", `Find all books published by "Addison-Wesley" after 1991.`, "question (or raw XQuery for -endpoint query)")
	document := flag.String("document", "", "document name sent with each request")
	n := flag.Int("n", 500, "total requests")
	c := flag.Int("c", 8, "concurrent clients")
	out := flag.String("out", "", "write the result JSON to this file (empty prints to stdout)")
	nocache := flag.Bool("nocache", false, "disable the layered query cache in the -self server's engines")
	sample := flag.Bool("sample", false, "enable tail-based trace sampling in the -self server (defaults as in nalix-serve)")
	sloReport := flag.Bool("slo-report", false, "fetch /slo after the run and embed the burn-rate report in the result")
	var objectives objectiveFlags
	flag.Var(&objectives, "slo", "objective for the -self server, name:availability[:latency] (repeatable; default <endpoint>:99:250ms with -slo-report)")
	flag.Parse()

	if err := run(*url, *self, *corpus, *scale, *shards, *sessions, *endpoint, *question, *document, *n, *c, *out, *nocache, *sample, *sloReport, objectives); err != nil {
		fmt.Fprintln(os.Stderr, "nalix-load:", err)
		os.Exit(1)
	}
}

// result is the BENCH_serve.json schema.
type result struct {
	Date        string  `json:"date"`
	Go          string  `json:"go"`
	Command     string  `json:"command"`
	Endpoint    string  `json:"endpoint"`
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	Sessions    int     `json:"sessions,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	CorpusNodes int     `json:"corpus_nodes,omitempty"`
	Errors      int     `json:"errors"`
	LatencyUs   latency `json:"latency_us"`
	RPS         float64 `json:"throughput_rps"`
	Note        string  `json:"note,omitempty"`
	// SLO embeds the server's /slo burn-rate report when -slo-report is
	// set: the multi-window burn rates the run produced.
	SLO json.RawMessage `json:"slo,omitempty"`
}

type latency struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

func run(url string, self bool, corpus string, scale, shards, sessions int, endpoint, question, document string, n, c int, out string, nocache, sample, sloReport bool, objectives []slo.Objective) error {
	if (url == "") == !self {
		return fmt.Errorf("exactly one of -url or -self is required")
	}
	if n < 1 || c < 1 {
		return fmt.Errorf("-n and -c must be positive")
	}
	res := result{
		Date:        time.Now().UTC().Format("2006-01-02"),
		Go:          runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		Endpoint:    endpoint,
		Requests:    n,
		Concurrency: c,
	}
	if self {
		if sloReport && len(objectives) == 0 {
			// A default objective for the driven endpoint, so the report
			// always has burn rates to show.
			obj, err := slo.ParseObjective(endpoint + ":99:250ms")
			if err != nil {
				return err
			}
			objectives = append(objectives, obj)
		}
		ts, nodes, err := selfServer(corpus, scale, shards, sessions, nocache, sample, objectives)
		if err != nil {
			return err
		}
		defer ts.Close()
		url = ts.URL
		res.Sessions = sessions
		res.CorpusNodes = nodes
		if shards > 1 {
			res.Shards = shards
		}
		res.Command = fmt.Sprintf("go run ./cmd/nalix-load -self -corpus %s -sessions %d -endpoint %s -n %d -c %d", corpus, sessions, endpoint, n, c)
		if scale > 1 {
			res.Command += fmt.Sprintf(" -scale %d", scale)
		}
		if shards > 1 {
			res.Command += fmt.Sprintf(" -shards %d", shards)
		}
		if sample {
			res.Command += " -sample"
		}
		if sloReport {
			res.Command += " -slo-report"
		}
		res.Note = "in-process server (httptest), loopback transport included in latencies"
	} else {
		res.Command = fmt.Sprintf("go run ./cmd/nalix-load -url %s -endpoint %s -n %d -c %d", url, endpoint, n, c)
	}

	body, err := json.Marshal(requestBody(endpoint, document, question))
	if err != nil {
		return err
	}
	target := strings.TrimRight(url, "/") + "/" + strings.TrimLeft(endpoint, "/")

	// Warm up: one request outside the measurement window, so lazy
	// index builds don't skew the tail.
	if err := fire(target, body); err != nil {
		return fmt.Errorf("warm-up request: %w", err)
	}

	lats := make([]time.Duration, n)
	errCounts := make([]int, c)
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
	}()
	wallStart := time.Now()
	for w := 0; w < c; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				if err := fire(target, body); err != nil {
					errCounts[w]++
					continue
				}
				lats[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(wallStart)

	var ok []float64
	for _, d := range lats {
		if d > 0 {
			ok = append(ok, float64(d.Nanoseconds())/1e3)
		}
	}
	for _, e := range errCounts {
		res.Errors += e
	}
	if len(ok) == 0 {
		return fmt.Errorf("all %d requests failed", n)
	}
	sort.Float64s(ok)
	res.LatencyUs = latency{
		P50:  percentile(ok, 50),
		P95:  percentile(ok, 95),
		P99:  percentile(ok, 99),
		Min:  ok[0],
		Max:  ok[len(ok)-1],
		Mean: mean(ok),
	}
	res.RPS = float64(len(ok)) / wall.Seconds()

	if sloReport {
		rep, err := fetchSLO(strings.TrimRight(url, "/") + "/slo")
		if err != nil {
			return fmt.Errorf("-slo-report: %w", err)
		}
		res.SLO = rep
	}

	b, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if out == "" {
		_, werr := os.Stdout.Write(b)
		return werr
	}
	return os.WriteFile(out, b, 0o644)
}

// requestBody builds the wire request for the chosen endpoint.
func requestBody(endpoint, document, question string) server.Request {
	req := server.Request{Document: document}
	if endpoint == "query" {
		req.Query = question
	} else {
		req.Question = question
	}
	return req
}

// fire posts one request and drains the response, failing on transport
// errors and non-200 statuses.
func fire(target string, body []byte) (err error) {
	resp, err := http.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// fetchSLO retrieves the server's burn-rate report as raw JSON.
func fetchSLO(target string) (json.RawMessage, error) {
	resp, err := http.Get(target)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/slo status %d", resp.StatusCode)
	}
	if !json.Valid(b) {
		return nil, fmt.Errorf("/slo returned invalid JSON")
	}
	return json.RawMessage(b), nil
}

// selfServer stands up an in-process server over the named corpus,
// returning the corpus node count alongside the server.
func selfServer(corpus string, scale, shards, sessions int, nocache, sample bool, objectives []slo.Objective) (*httptest.Server, int, error) {
	if sessions < 1 {
		sessions = 1
	}
	doc, err := corpusDoc(corpus, scale)
	if err != nil {
		return nil, 0, err
	}
	reg := obs.NewRegistry()
	engines := make([]*nalix.Engine, sessions)
	for i := range engines {
		e := nalix.New()
		// Metrics registry before EnableCache: the cache layers bind
		// their counters at construction.
		e.SetMetricsRegistry(reg)
		if !nocache {
			e.EnableCache(nalix.CacheConfig{})
		}
		if shards > 1 {
			e.SetShards(shards)
		}
		// One shared document across the session pool: the
		// scaled corpora are too large to copy per session.
		e.LoadDocument(doc)
		engines[i] = e
	}
	cfg := server.Config{
		Engines:    engines,
		Registry:   reg,
		Objectives: objectives,
	}
	if sample {
		sc := obs.DefaultSamplerConfig()
		cfg.Sampling = &sc
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	return httptest.NewServer(srv.Handler()), doc.Size(), nil
}

func corpusDoc(corpus string, scale int) (*xmldb.Document, error) {
	switch corpus {
	case "movies":
		return dataset.Movies(), nil
	case "library":
		return dataset.Library(), nil
	case "bib":
		return dataset.Bib(), nil
	case "dblp":
		return dataset.Generate(scale), nil
	}
	return nil, fmt.Errorf("unknown corpus %q (movies, library, bib, dblp)", corpus)
}

// percentile returns the pth percentile of sorted values (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func mean(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
