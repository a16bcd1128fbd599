package obs

import (
	"sync"
	"time"
)

// Tail-based trace sampling: every request is traced cheaply, and the
// decision to *retain* the trace is made after completion, when the
// outcome is known. The interesting traces — errors, rejected questions
// with feedback, and the latency tail — are always kept; ordinary
// traffic is kept as a budgeted trickle so the retained set stays
// representative without letting the flood evict the tail (the failure
// mode of an evict-oldest ring under load).

// Sampler defaults.
const (
	DefaultSampleEvery      = 20 // ≤5% of normal traffic
	DefaultSamplePerSec     = 16
	DefaultAdaptiveFactor   = 4.0
	DefaultAdaptiveQuantile = 0.95
	DefaultAdaptiveWindow   = 10 * time.Second
	DefaultAdaptiveMin      = 200
)

// SamplerConfig is a tail-sampling retention policy. The zero value
// keeps nothing; DefaultSamplerConfig is the standard production
// policy.
type SamplerConfig struct {
	// KeepErrors retains every trace whose request failed outright.
	KeepErrors bool
	// KeepFeedback retains every trace whose question was rejected with
	// a feedback code — the paper's iterative-reformulation loop is
	// debugged from exactly these.
	KeepFeedback bool
	// Threshold is a static latency floor: every request at or above it
	// is retained. Zero disables the static rule.
	Threshold time.Duration
	// AdaptiveFactor enables the adaptive latency rule: a request is
	// retained when its latency is at or above AdaptiveFactor times the
	// rolling AdaptiveQuantile of recent traffic. The threshold adapts
	// to the workload, so "slow" always means "slow for this corpus and
	// this query mix". Non-positive disables the rule.
	AdaptiveFactor float64
	// AdaptiveQuantile is the rolling quantile the adaptive threshold
	// multiplies (0 means DefaultAdaptiveQuantile).
	AdaptiveQuantile float64
	// AdaptiveWindow is the rotation period of the rolling latency
	// window (0 means DefaultAdaptiveWindow). The adaptive threshold is
	// recomputed once per rotation from the completed window.
	AdaptiveWindow time.Duration
	// AdaptiveMin is how many observations a window needs before the
	// adaptive rule engages (0 means DefaultAdaptiveMin) — early traffic
	// is never judged against a threshold estimated from nothing.
	AdaptiveMin int64
	// SampleEvery keeps 1 in N of the requests no other rule kept
	// (0 disables the trickle; 1 keeps everything). The counter-based
	// rule is deterministic: among m normal requests, exactly
	// ceil(m/N) are kept.
	SampleEvery int
	// SamplePerSec budgets the trickle: at most this many normal traces
	// retained per second, enforced by a token bucket (0 = unlimited).
	SamplePerSec float64
	// Now is the clock (nil means time.Now) — a test hook.
	Now func() time.Time
}

// DefaultSamplerConfig is the standard tail-sampling policy: keep all
// errors and feedback rejections, keep everything slower than 4× the
// rolling p95, and keep 1 in 20 of the rest at up to 16 traces/s.
func DefaultSamplerConfig() SamplerConfig {
	return SamplerConfig{
		KeepErrors:     true,
		KeepFeedback:   true,
		AdaptiveFactor: DefaultAdaptiveFactor,
		SampleEvery:    DefaultSampleEvery,
		SamplePerSec:   DefaultSamplePerSec,
	}
}

// Verdict is one request's retention decision.
type Verdict struct {
	// Keep is the decision.
	Keep bool
	// Reason says which rule kept the trace: "error", "feedback",
	// "threshold" (static), "slow" (adaptive), or "sample" (the normal
	// trickle). Empty when dropped.
	Reason string
}

// SamplerStats is a point-in-time accounting of one sampler's
// decisions.
type SamplerStats struct {
	Seen          int64 `json:"seen"`
	Kept          int64 `json:"kept"`
	KeptErrors    int64 `json:"kept_errors"`
	KeptFeedback  int64 `json:"kept_feedback"`
	KeptThreshold int64 `json:"kept_threshold"`
	KeptSlow      int64 `json:"kept_slow"`
	KeptSampled   int64 `json:"kept_sampled"`
	// ThresholdNs is the currently effective adaptive threshold (0 while
	// the rule has not engaged).
	ThresholdNs int64 `json:"adaptive_threshold_ns"`
}

// latencyWindow is one rotation epoch of the adaptive estimator: a log2
// latency histogram cheap enough to feed on every request.
type latencyWindow struct {
	count    int64
	min, max float64
	buckets  [histogramBuckets]int64
}

func (w *latencyWindow) observe(v float64) {
	if v < 0 {
		return
	}
	if w.count == 0 || v < w.min {
		w.min = v
	}
	if w.count == 0 || v > w.max {
		w.max = v
	}
	w.count++
	w.buckets[bucketIndex(v)]++
}

// Sampler applies a SamplerConfig. Safe for concurrent use; a decision
// is one short critical section (histogram bump plus a few compares).
type Sampler struct {
	cfg SamplerConfig
	now func() time.Time

	mu          sync.Mutex
	stats       SamplerStats
	normalSeen  int64
	cur         latencyWindow
	epochStart  time.Time
	adaptiveThr float64 // ns; 0 = not engaged
	tokens      float64
	lastRefill  time.Time
}

// NewSampler builds a sampler from a config, applying defaults to the
// adaptive-rule knobs left zero.
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.AdaptiveQuantile <= 0 || cfg.AdaptiveQuantile > 1 {
		cfg.AdaptiveQuantile = DefaultAdaptiveQuantile
	}
	if cfg.AdaptiveWindow <= 0 {
		cfg.AdaptiveWindow = DefaultAdaptiveWindow
	}
	if cfg.AdaptiveMin <= 0 {
		cfg.AdaptiveMin = DefaultAdaptiveMin
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &Sampler{cfg: cfg, now: now}
	t := now()
	s.epochStart = t
	s.lastRefill = t
	s.tokens = cfg.SamplePerSec
	return s
}

// Decide makes the retention decision for one completed request.
func (s *Sampler) Decide(latency time.Duration, isError bool, feedbackCode string) Verdict {
	lat := float64(latency.Nanoseconds())
	t := s.now()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Seen++

	// Feed the adaptive estimator before judging, so the threshold
	// reflects all traffic including the tail itself.
	if s.cfg.AdaptiveFactor > 0 {
		if t.Sub(s.epochStart) >= s.cfg.AdaptiveWindow {
			s.rotate(t)
		}
		s.cur.observe(lat)
	}

	switch {
	case isError && s.cfg.KeepErrors:
		return s.keep(&s.stats.KeptErrors, "error")
	case feedbackCode != "" && s.cfg.KeepFeedback:
		return s.keep(&s.stats.KeptFeedback, "feedback")
	case s.cfg.Threshold > 0 && latency >= s.cfg.Threshold:
		return s.keep(&s.stats.KeptThreshold, "threshold")
	case s.adaptiveThr > 0 && lat >= s.adaptiveThr:
		return s.keep(&s.stats.KeptSlow, "slow")
	}

	if s.cfg.SampleEvery <= 0 {
		return Verdict{}
	}
	s.normalSeen++
	if (s.normalSeen-1)%int64(s.cfg.SampleEvery) != 0 {
		return Verdict{}
	}
	if s.cfg.SamplePerSec > 0 && !s.takeToken(t) {
		return Verdict{}
	}
	return s.keep(&s.stats.KeptSampled, "sample")
}

// keep records a retained trace under the given per-reason counter.
// Callers hold s.mu.
func (s *Sampler) keep(counter *int64, reason string) Verdict {
	*counter++
	s.stats.Kept++
	return Verdict{Keep: true, Reason: reason}
}

// rotate closes the current window: the adaptive threshold is
// recomputed from it (when it saw enough traffic) and a fresh window
// starts. Callers hold s.mu.
func (s *Sampler) rotate(t time.Time) {
	if s.cur.count >= s.cfg.AdaptiveMin {
		q := quantileFromBuckets(s.cur.buckets[:], bucketBounds, s.cur.count, s.cur.min, s.cur.max, s.cfg.AdaptiveQuantile)
		s.adaptiveThr = q * s.cfg.AdaptiveFactor
	}
	s.cur = latencyWindow{}
	s.epochStart = t
}

// takeToken enforces the normal-trickle budget. Callers hold s.mu.
func (s *Sampler) takeToken(t time.Time) bool {
	s.tokens += t.Sub(s.lastRefill).Seconds() * s.cfg.SamplePerSec
	s.lastRefill = t
	if limit := s.cfg.SamplePerSec; s.tokens > limit {
		s.tokens = limit
	}
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

// Stats returns a snapshot of the sampler's decision counts.
func (s *Sampler) Stats() SamplerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.ThresholdNs = int64(s.adaptiveThr)
	return st
}
