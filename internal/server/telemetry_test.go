package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nalix/internal/obs"
	"nalix/internal/obs/slo"
)

// teeArtifact writes a test artifact into NALIX_TEST_LOGDIR when the CI
// hook is set, so a failing run uploads the observability state it died
// with (metrics snapshot, kept traces, capture listings).
func teeArtifact(t testing.TB, name string, data []byte) {
	t.Helper()
	dir := os.Getenv("NALIX_TEST_LOGDIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("NALIX_TEST_LOGDIR: %v", err)
		return
	}
	prefix := strings.ReplaceAll(t.Name(), "/", "_")
	if err := os.WriteFile(filepath.Join(dir, prefix+"-"+name), data, 0o644); err != nil {
		t.Logf("NALIX_TEST_LOGDIR: %v", err)
	}
}

// traceList decodes GET /debug/traces.
type traceList struct {
	Total   int64             `json:"total_kept"`
	Sampler *obs.SamplerStats `json:"sampler"`
	Entries []TraceListEntry  `json:"entries"`
}

func getTraceList(t testing.TB, base string) ([]byte, traceList) {
	t.Helper()
	status, body := getBody(t, base+"/debug/traces")
	if status != 200 {
		t.Fatalf("/debug/traces status = %d", status)
	}
	var out traceList
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("/debug/traces is not valid JSON: %v", err)
	}
	return body, out
}

// TestTailSamplingConcurrentExact is the sampling acceptance drive:
// under concurrent mixed traffic with a policy that keeps only errors
// and feedback rejections, the kept set is exactly policy-predicted —
// 100% of errors and feedback-code answers retained, 0% of normal
// traffic — and the access log's sampled field agrees, race-clean.
func TestTailSamplingConcurrentExact(t *testing.T) {
	reg := obs.NewRegistry()
	lb := newLogBuffer(t)
	srv, err := New(Config{
		Engines:            testEngines(t, 4),
		SlowThreshold:      -1,
		SlowStageThreshold: -1,
		AccessLog:          lb,
		Registry:           reg,
		Sampling: &obs.SamplerConfig{
			KeepErrors:   true,
			KeepFeedback: true,
			Threshold:    time.Hour, // nothing is that slow
			SampleEvery:  0,         // no trickle: the kept set is pure policy
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 8
	const perClient = 12 // 4 normal, 4 feedback, 4 error per client
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				switch i % 3 {
				case 0:
					if _, out := postJSON(t, ts.URL+"/ask", Request{Question: acceptanceQuery}); !out.Accepted {
						t.Errorf("normal ask rejected: %+v", out.Feedback)
					}
				case 1:
					if _, out := postJSON(t, ts.URL+"/ask", Request{Question: rejectedQuery}); out.Accepted {
						t.Error("feedback ask accepted")
					}
				case 2:
					if resp, _ := postJSON(t, ts.URL+"/ask", Request{Document: "nope.xml", Question: acceptanceQuery}); resp.StatusCode != 422 {
						t.Errorf("error ask status = %d", resp.StatusCode)
					}
				}
			}
		}()
	}
	wg.Wait()

	total := clients * perClient
	wantErrors := int64(total / 3)
	wantFeedback := int64(total / 3)

	body, list := getTraceList(t, ts.URL)
	teeArtifact(t, "kept-traces.json", body)
	if snap, err := reg.Snapshot().JSON(); err == nil {
		teeArtifact(t, "metrics.json", snap)
	}

	if list.Total != wantErrors+wantFeedback {
		t.Errorf("kept %d traces, want exactly %d (errors + feedback)", list.Total, wantErrors+wantFeedback)
	}
	var gotErr, gotFb int64
	for _, e := range list.Entries {
		switch e.SampleReason {
		case "error":
			gotErr++
			if e.Error == "" {
				t.Errorf("error-kept entry missing error text: %+v", e)
			}
		case "feedback":
			gotFb++
		default:
			t.Errorf("kept entry with unexpected reason %q", e.SampleReason)
		}
	}
	if gotErr != wantErrors || gotFb != wantFeedback {
		t.Errorf("kept errors/feedback = %d/%d, want %d/%d", gotErr, gotFb, wantErrors, wantFeedback)
	}
	if list.Sampler == nil {
		t.Fatal("/debug/traces missing sampler stats")
	}
	if list.Sampler.Seen != int64(total) || list.Sampler.Kept != wantErrors+wantFeedback {
		t.Errorf("sampler stats = %+v", list.Sampler)
	}

	// Every kept entry's full trace resolves by ID; an error-kept entry
	// serves the failed call's error-tagged trace.
	for _, e := range list.Entries {
		if e.SampleReason == "error" {
			failedTrace(t, ts.URL, e.RequestID)
			continue
		}
		status, _ := getBody(t, ts.URL+"/debug/traces/"+e.RequestID)
		if status != 200 {
			t.Errorf("kept trace %s not retrievable: %d", e.RequestID, status)
		}
	}

	// The access log's sampled field agrees with the verdicts.
	var sampledLines, droppedLines int64
	for _, line := range lb.Lines() {
		var rec AccessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("malformed access record: %v", err)
		}
		if rec.Sampled {
			sampledLines++
			if rec.SampleReason != "error" && rec.SampleReason != "feedback" {
				t.Errorf("sampled record with reason %q", rec.SampleReason)
			}
		} else {
			droppedLines++
		}
	}
	if sampledLines != wantErrors+wantFeedback || droppedLines != int64(total)-sampledLines {
		t.Errorf("access log sampled/dropped = %d/%d, want %d/%d",
			sampledLines, droppedLines, wantErrors+wantFeedback, int64(total)-wantErrors-wantFeedback)
	}
	// Counters agree too.
	snap := reg.Snapshot()
	if v := snap.Counter(obs.Labeled("http_sampled", "reason", "error")); v != wantErrors {
		t.Errorf("http_sampled{reason=error} = %d, want %d", v, wantErrors)
	}
	if v := snap.Counter(obs.Labeled("http_sampled", "reason", "feedback")); v != wantFeedback {
		t.Errorf("http_sampled{reason=feedback} = %d, want %d", v, wantFeedback)
	}
}

// TestTailSamplingThresholdKeepsAll: with a 1ns threshold every request
// is over-threshold, so ≥99% (here: 100%) of over-threshold traffic is
// retained with reason "threshold".
func TestTailSamplingThresholdKeepsAll(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Engines:       testEngines(t, 1),
		SlowThreshold: -1,
		Registry:      reg,
		Sampling: &obs.SamplerConfig{
			Threshold:   time.Nanosecond,
			SampleEvery: 0,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const m = 10
	for i := 0; i < m; i++ {
		postJSON(t, ts.URL+"/ask", Request{Question: acceptanceQuery})
	}
	_, list := getTraceList(t, ts.URL)
	if list.Total != m {
		t.Errorf("kept %d of %d over-threshold requests, want all", list.Total, m)
	}
	for _, e := range list.Entries {
		if e.SampleReason != "threshold" {
			t.Errorf("reason = %q, want threshold", e.SampleReason)
		}
	}
}

// TestTailSamplingTrickleOverHTTP: the deterministic 1-in-N trickle
// holds end-to-end — sequential normal traffic keeps exactly ceil(m/N).
func TestTailSamplingTrickleOverHTTP(t *testing.T) {
	srv, err := New(Config{
		Engines:       testEngines(t, 1),
		SlowThreshold: -1,
		Registry:      obs.NewRegistry(),
		Sampling:      &obs.SamplerConfig{SampleEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const m = 20
	for i := 0; i < m; i++ {
		postJSON(t, ts.URL+"/ask", Request{Question: acceptanceQuery})
	}
	_, list := getTraceList(t, ts.URL)
	if want := int64((m + 3) / 4); list.Total != want {
		t.Errorf("trickle kept %d of %d, want exactly %d", list.Total, m, want)
	}
	if list.Total > m/20+int64(m)/4+1 {
		t.Errorf("trickle exceeds budget: %d of %d", list.Total, m)
	}
}

// TestSlowRingPerStageKeying (satellite): a request whose total wall
// time stays under the wall threshold still enters the slow ring when a
// single stage crosses the per-stage threshold, and the entry names
// that stage.
func TestSlowRingPerStageKeying(t *testing.T) {
	srv, err := New(Config{
		Engines:            testEngines(t, 1),
		SlowThreshold:      time.Hour,       // wall rule never fires
		SlowStageThreshold: time.Nanosecond, // any stage fires
		Registry:           obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, out := postJSON(t, ts.URL+"/ask", Request{Question: acceptanceQuery}); !out.Accepted {
		t.Fatalf("rejected: %+v", out.Feedback)
	}
	status, body := getBody(t, ts.URL+"/debug/slow")
	if status != 200 {
		t.Fatalf("/debug/slow status = %d", status)
	}
	var slowOut struct {
		ThresholdNs      int64       `json:"threshold_ns"`
		StageThresholdNs int64       `json:"stage_threshold_ns"`
		Entries          []SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(body, &slowOut); err != nil {
		t.Fatal(err)
	}
	if slowOut.StageThresholdNs != 1 {
		t.Errorf("stage_threshold_ns = %d, want 1", slowOut.StageThresholdNs)
	}
	if len(slowOut.Entries) != 1 {
		t.Fatalf("slow entries = %d, want 1 (stage rule)", len(slowOut.Entries))
	}
	e := slowOut.Entries[0]
	if e.SlowStage == "" || e.SlowStageNs <= 0 {
		t.Errorf("slow entry does not name its bottleneck stage: %+v", e)
	}
	if e.DurationNs >= time.Hour.Nanoseconds() {
		t.Errorf("entry admitted by wall rule, not stage rule: %+v", e)
	}
}

// TestSlowVerdict pins the admission rule's arithmetic.
func TestSlowVerdict(t *testing.T) {
	s := &Server{slowAt: 500 * time.Millisecond, stageAt: 250 * time.Millisecond}
	sum := func(ns ...int64) *TraceSummary {
		ts := &TraceSummary{}
		for i, n := range ns {
			ts.Stages = append(ts.Stages, StageLatency{Stage: fmt.Sprintf("s%d", i), Ns: n})
		}
		return ts
	}
	cases := []struct {
		total time.Duration
		sum   *TraceSummary
		slow  bool
		stage string
	}{
		{600 * time.Millisecond, sum(int64(100 * time.Millisecond)), true, "s0"}, // wall rule
		{450 * time.Millisecond, sum(int64(400 * time.Millisecond)), true, "s0"}, // stage rule under wall
		{450 * time.Millisecond, sum(int64(100*time.Millisecond), int64(300*time.Millisecond)), true, "s1"},
		{100 * time.Millisecond, sum(int64(90 * time.Millisecond)), false, "s0"}, // neither
		{100 * time.Millisecond, nil, false, ""},                                 // no trace
		{600 * time.Millisecond, nil, true, ""},                                  // wall rule, no trace
	}
	for i, c := range cases {
		slow, stage, _ := s.slowVerdict(c.total, c.sum)
		if slow != c.slow || stage != c.stage {
			t.Errorf("case %d: slowVerdict = (%v, %q), want (%v, %q)", i, slow, stage, c.slow, c.stage)
		}
	}
	// Disabled rules never admit.
	off := &Server{slowAt: -1, stageAt: -1}
	if slow, _, _ := off.slowVerdict(time.Hour, sum(int64(time.Hour))); slow {
		t.Error("disabled thresholds admitted an entry")
	}
}

// TestExemplarResolvesToLiveTrace (acceptance): a /metrics histogram
// bucket carries an exemplar whose trace ID resolves to a live
// /debug/traces/{id}.
func TestExemplarResolvesToLiveTrace(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 1, -1)
	for i := 0; i < 3; i++ {
		if _, out := postJSON(t, ts.URL+"/ask", Request{Question: acceptanceQuery}); !out.Accepted {
			t.Fatalf("rejected: %+v", out.Feedback)
		}
	}
	status, body := getBody(t, ts.URL+"/metrics")
	if status != 200 {
		t.Fatalf("/metrics status = %d", status)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	h, ok := snap.Histogram("http_ask_ns")
	if !ok {
		t.Fatal("/metrics missing http_ask_ns")
	}
	var exemplarID string
	for _, b := range h.Buckets {
		if b.Exemplar != nil {
			exemplarID = b.Exemplar.TraceID
		}
	}
	if exemplarID == "" {
		t.Fatal("no exemplar on any http_ask_ns bucket")
	}
	trStatus, trBody := getBody(t, ts.URL+"/debug/traces/"+exemplarID)
	if trStatus != 200 {
		t.Fatalf("exemplar trace %s did not resolve: %d", exemplarID, trStatus)
	}
	var full struct {
		RequestID string `json:"request_id"`
		Rendered  string `json:"rendered"`
	}
	if err := json.Unmarshal(trBody, &full); err != nil {
		t.Fatal(err)
	}
	if full.RequestID != exemplarID || !strings.Contains(full.Rendered, "ask") {
		t.Errorf("resolved trace = %+v, want the exemplar's span tree", full)
	}
}

// TestSLOBurnDriveAndProfileCapture (acceptance): synthetic latency
// injection — an objective with a 1ns latency threshold makes every
// request bad — drives /slo burn rates across the fast-burn alert
// threshold, which fires a profiling capture into /debug/profiles.
func TestSLOBurnDriveAndProfileCapture(t *testing.T) {
	profDir := t.TempDir()
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Engines:          testEngines(t, 2),
		SlowThreshold:    -1,
		Registry:         reg,
		SLOCheckInterval: time.Millisecond,
		Objectives: []slo.Objective{
			{Name: "ask", Target: 0.99, Latency: time.Nanosecond},
		},
		Profile: ProfileConfig{
			Dir:         profDir,
			CPUDuration: 20 * time.Millisecond,
			Capacity:    2,
			SpikeFactor: -1, // only the fast-burn trigger, deterministically
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 20; i++ {
		postJSON(t, ts.URL+"/ask", Request{Question: acceptanceQuery})
		time.Sleep(2 * time.Millisecond) // let the check interval elapse
	}

	status, body := getBody(t, ts.URL+"/slo")
	teeArtifact(t, "slo.json", body)
	if status != 200 {
		t.Fatalf("/slo status = %d", status)
	}
	var rep struct {
		Enabled           bool                  `json:"enabled"`
		FastBurnThreshold float64               `json:"fast_burn_threshold"`
		Objectives        []slo.ObjectiveReport `json:"objectives"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Enabled || len(rep.Objectives) != 1 {
		t.Fatalf("/slo = %s", body)
	}
	o := rep.Objectives[0]
	if !o.FastBurnActive {
		t.Fatalf("fast burn not active after injection: %+v", o)
	}
	for _, w := range o.Windows {
		if (w.Window == "5m" || w.Window == "1h") && w.BurnRate < rep.FastBurnThreshold {
			t.Errorf("window %s burn = %v, want >= %v", w.Window, w.BurnRate, rep.FastBurnThreshold)
		}
	}
	snap := reg.Snapshot()
	if v := snap.Gauge("nalix_slo_fast_burn_active{objective=ask}"); v != 1 {
		t.Errorf("fast_burn_active gauge = %d, want 1", v)
	}
	if v := snap.Counter(obs.Labeled("slo_fast_burn_fired", "objective", "ask")); v < 1 {
		t.Errorf("slo_fast_burn_fired = %d, want >= 1", v)
	}

	// The alert fired a profiling capture; poll until it lands on disk.
	deadline := time.Now().Add(5 * time.Second)
	var caps struct {
		Enabled  bool          `json:"enabled"`
		Captures []CaptureInfo `json:"captures"`
	}
	for {
		_, pbody := getBody(t, ts.URL+"/debug/profiles")
		if err := json.Unmarshal(pbody, &caps); err != nil {
			t.Fatal(err)
		}
		if len(caps.Captures) > 0 && caps.Captures[0].Trigger != "" {
			teeArtifact(t, "profiles.json", pbody)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no profiling capture appeared: %s", pbody)
		}
		time.Sleep(25 * time.Millisecond)
	}
	cap0 := caps.Captures[0]
	if !caps.Enabled || cap0.Trigger != "fast-burn:ask" {
		t.Fatalf("capture = %+v, want trigger fast-burn:ask", cap0)
	}
	for _, want := range []string{"cpu.pprof", "goroutine.txt", "heap.pprof"} {
		found := false
		for _, f := range cap0.Files {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("capture missing %s: %+v", want, cap0.Files)
			continue
		}
		st, fb := getBody(t, ts.URL+"/debug/profiles/"+cap0.Name+"/"+want)
		if st != 200 || len(fb) == 0 {
			t.Errorf("capture file %s: status %d, %d bytes", want, st, len(fb))
		}
	}
	// Path traversal is refused.
	if st, _ := getBody(t, ts.URL+"/debug/profiles/"+cap0.Name+"/..%2Fmeta.json"); st != 404 {
		t.Errorf("traversal file request status = %d, want 404", st)
	}
}

// TestProfilerSpikeTrigger: the latency trigger captures on a request
// that spikes past the rolling p99.
func TestProfilerSpikeTrigger(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := newProfiler(ProfileConfig{
		Dir:             t.TempDir(),
		CPUDuration:     10 * time.Millisecond,
		SpikeFactor:     2,
		SpikeWindow:     50 * time.Millisecond,
		SpikeMinSamples: 20,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	// A window of ~1ms traffic, then rotation, then a huge spike.
	for i := 0; i < 50; i++ {
		p.note(time.Millisecond)
	}
	time.Sleep(60 * time.Millisecond)
	p.note(time.Millisecond) // rotates the window, arms the threshold
	p.note(time.Second)      // >> 2x p99: fires
	deadline := time.Now().Add(5 * time.Second)
	for {
		caps := p.list()
		if len(caps) == 1 && caps[0].Trigger == "latency-spike" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spike capture did not appear: %+v", caps)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := reg.Snapshot().Counter(obs.Labeled("profile_captures", "trigger", "latency-spike")); v != 1 {
		t.Errorf("profile_captures{trigger=latency-spike} = %d, want 1", v)
	}
}

// TestProfilerEviction: the on-disk ring stays capped.
func TestProfilerEviction(t *testing.T) {
	dir := t.TempDir()
	p, err := newProfiler(ProfileConfig{
		Dir:         dir,
		CPUDuration: time.Millisecond,
		Capacity:    2,
		Cooldown:    time.Nanosecond,
		SpikeFactor: -1,
	}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !p.trigger("test") {
			t.Fatalf("trigger %d declined", i)
		}
		// Wait for the capture goroutine to finish before the next one.
		deadline := time.Now().Add(5 * time.Second)
		for {
			p.mu.Lock()
			busy := p.busy
			p.mu.Unlock()
			if !busy {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("capture never finished")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	caps := p.list()
	if len(caps) != 2 {
		t.Fatalf("capture ring holds %d, want capacity 2: %+v", len(caps), caps)
	}
	// The survivors are the newest two.
	for _, c := range caps {
		if c.Name < "cap-000003" {
			t.Errorf("old capture %s not evicted", c.Name)
		}
	}
}

// TestValidPathSegment pins the capture-file path filter.
func TestValidPathSegment(t *testing.T) {
	for _, ok := range []string{"cpu.pprof", "meta.json", "cap-000001-17"} {
		if !validPathSegment(ok) {
			t.Errorf("validPathSegment(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, "../meta.json"} {
		if validPathSegment(bad) {
			t.Errorf("validPathSegment(%q) = true", bad)
		}
	}
}

// TestSLODisabled: without objectives /slo reports disabled.
func TestSLODisabled(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 1, -1)
	status, body := getBody(t, ts.URL+"/slo")
	if status != 200 {
		t.Fatalf("/slo status = %d", status)
	}
	var out struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Enabled {
		t.Fatalf("/slo = %s (err %v), want enabled=false", body, err)
	}
	// And /debug/profiles likewise.
	status, body = getBody(t, ts.URL+"/debug/profiles")
	var profs struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(body, &profs); err != nil || status != 200 || profs.Enabled {
		t.Fatalf("/debug/profiles = %d %s", status, body)
	}
}
