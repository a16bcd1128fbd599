package obs

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for sampler tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestSamplerKeepRules: errors and feedback are always kept, static
// over-threshold always kept, and the rules rank in that order.
func TestSamplerKeepRules(t *testing.T) {
	s := NewSampler(SamplerConfig{
		KeepErrors:   true,
		KeepFeedback: true,
		Threshold:    10 * time.Millisecond,
		SampleEvery:  0, // no trickle: decisions are pure policy
	})
	cases := []struct {
		lat    time.Duration
		isErr  bool
		code   string
		keep   bool
		reason string
	}{
		{time.Millisecond, true, "", true, "error"},
		{time.Millisecond, false, "unknown-term", true, "feedback"},
		{20 * time.Millisecond, false, "", true, "threshold"},
		{10 * time.Millisecond, false, "", true, "threshold"}, // at threshold
		{9 * time.Millisecond, false, "", false, ""},
		{50 * time.Millisecond, true, "", true, "error"}, // error outranks threshold
	}
	for i, c := range cases {
		v := s.Decide(c.lat, c.isErr, c.code)
		if v.Keep != c.keep || v.Reason != c.reason {
			t.Errorf("case %d: Decide = %+v, want keep=%v reason=%q", i, v, c.keep, c.reason)
		}
	}
	st := s.Stats()
	if st.Seen != 6 || st.Kept != 5 || st.KeptErrors != 2 || st.KeptFeedback != 1 || st.KeptThreshold != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestSamplerTrickleDeterministic: among m normal requests with
// SampleEvery=N, exactly ceil(m/N) are kept — the counter-based rule is
// deterministic, which is what lets tests (and operators) predict the
// retained set exactly.
func TestSamplerTrickleDeterministic(t *testing.T) {
	s := NewSampler(SamplerConfig{SampleEvery: 20})
	kept := 0
	const m = 1000
	for i := 0; i < m; i++ {
		if s.Decide(time.Millisecond, false, "").Keep {
			kept++
		}
	}
	if want := (m + 19) / 20; kept != want {
		t.Errorf("kept %d of %d normal requests, want exactly %d (1 in 20)", kept, m, want)
	}
	if kept > m/20+1 {
		t.Errorf("trickle exceeds 5%% budget: %d of %d", kept, m)
	}
}

// TestSamplerBudget: the token bucket caps the trickle at SamplePerSec
// regardless of traffic volume, and refills over time.
func TestSamplerBudget(t *testing.T) {
	clk := newFakeClock()
	s := NewSampler(SamplerConfig{
		SampleEvery:  1, // every normal request is a candidate
		SamplePerSec: 2,
		Now:          clk.Now,
	})
	kept := 0
	for i := 0; i < 100; i++ {
		if s.Decide(time.Millisecond, false, "").Keep {
			kept++
		}
	}
	if kept != 2 {
		t.Errorf("kept %d in one instant, want budget cap 2", kept)
	}
	clk.Advance(time.Second)
	if !s.Decide(time.Millisecond, false, "").Keep {
		t.Error("budget did not refill after 1s")
	}
}

// TestSamplerAdaptiveThreshold: the adaptive rule engages after a full
// window of observations and then retains the tail relative to the
// traffic actually seen.
func TestSamplerAdaptiveThreshold(t *testing.T) {
	clk := newFakeClock()
	s := NewSampler(SamplerConfig{
		AdaptiveFactor:   2,
		AdaptiveQuantile: 0.95,
		AdaptiveWindow:   10 * time.Second,
		AdaptiveMin:      100,
		Now:              clk.Now,
	})
	// First window: 1000 requests around 1ms. Nothing is kept (the
	// rule has not engaged) but the window learns the distribution.
	for i := 0; i < 1000; i++ {
		if v := s.Decide(time.Millisecond, false, ""); v.Keep {
			t.Fatalf("kept %+v before the adaptive rule engaged", v)
		}
	}
	if thr := s.Stats().ThresholdNs; thr != 0 {
		t.Fatalf("threshold engaged mid-window: %v", time.Duration(thr))
	}
	// Rotate: the completed window sets the threshold at 2× its p95.
	clk.Advance(11 * time.Second)
	s.Decide(time.Millisecond, false, "")
	thr := time.Duration(s.Stats().ThresholdNs)
	if thr <= 0 {
		t.Fatal("adaptive threshold did not engage after a full window")
	}
	// ~1ms traffic in log2 buckets: p95 is within [512us, 1.05ms]·2.
	if thr < 500*time.Microsecond || thr > 5*time.Millisecond {
		t.Fatalf("threshold = %v, want around 2x p95 of ~1ms traffic", thr)
	}
	// A latency spike above the threshold is now kept as "slow"; normal
	// traffic still is not.
	if v := s.Decide(thr+time.Millisecond, false, ""); !v.Keep || v.Reason != "slow" {
		t.Errorf("over-threshold request: %+v, want keep/slow", v)
	}
	if v := s.Decide(time.Millisecond, false, ""); v.Keep {
		t.Errorf("normal request kept after engage: %+v", v)
	}
	if st := s.Stats(); st.KeptSlow != 1 || st.ThresholdNs != int64(thr) {
		t.Errorf("stats = %+v, want kept_slow=1 threshold=%d", st, int64(thr))
	}
}

// TestSamplerConcurrent: decisions under concurrency stay exact in
// aggregate — the counter rule keeps precisely ceil(m/N) and every
// error is kept (run with -race).
func TestSamplerConcurrent(t *testing.T) {
	s := NewSampler(SamplerConfig{KeepErrors: true, SampleEvery: 10})
	const workers = 8
	const perWorker = 250
	keptNormal := make([]int64, workers)
	keptErr := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				isErr := i%50 == 0
				v := s.Decide(time.Millisecond, isErr, "")
				switch {
				case isErr && v.Keep:
					keptErr[w]++
				case isErr && !v.Keep:
					t.Error("error dropped")
				case v.Keep:
					keptNormal[w]++
				}
			}
		}()
	}
	wg.Wait()
	var errs, normal int64
	for w := 0; w < workers; w++ {
		errs += keptErr[w]
		normal += keptNormal[w]
	}
	wantErrs := int64(workers * perWorker / 50)
	if errs != wantErrs {
		t.Errorf("kept %d errors, want all %d", errs, wantErrs)
	}
	m := int64(workers*perWorker) - wantErrs
	if want := (m + 9) / 10; normal != want {
		t.Errorf("kept %d normal, want exactly %d (1 in 10 of %d)", normal, want, m)
	}
	if st := s.Stats(); st.Seen != workers*perWorker || st.Kept != errs+normal {
		t.Errorf("stats = %+v", st)
	}
}
