package obs

import (
	"math"
	"testing"
)

// TestQuantileInterpolationPinned pins the interpolation against
// hand-computed exact values, so the estimator's semantics cannot drift
// silently: rank r = q·count is located in its log2 bucket and the
// value is interpolated linearly at the rank's relative position inside
// [lo, hi), clamped to the observed [min, max].
func TestQuantileInterpolationPinned(t *testing.T) {
	r := NewRegistry()
	// Four observations in three log2 buckets: 1 → [1,2); 2 and 3 →
	// [2,4); 1000 → [512,1024).
	for _, v := range []float64{1, 2, 3, 1000} {
		r.Observe("h", v)
	}
	h, ok := r.Snapshot().Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	cases := []struct {
		q    float64
		want float64
	}{
		// p50: rank 2 of 4 → bucket [2,4) holds ranks 2..3; frac
		// (2-1)/2 = 0.5 → 2 + 0.5·(4-2) = 3.
		{0.50, 3},
		// p75: rank 3 → bucket [2,4); frac (3-1)/2 = 1 → 2 + 1·2 = 4.
		{0.75, 4},
		// p99: rank 3.96 → bucket [512,1024) holds rank 4; frac
		// (3.96-3)/1=0.96 → 512+0.96·512 = 1003.52, clamped to max 1000.
		{0.99, 1000},
		// p1: rank clamps up to 1 → bucket [1,2); frac 1/1 = 1 →
		// 1 + 1·(2-1) = 2.
		{0.01, 2},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// The snapshot's precomputed fields agree with the method.
	if h.P50 != h.Quantile(0.50) || h.P95 != h.Quantile(0.95) || h.P99 != h.Quantile(0.99) {
		t.Errorf("snapshot p50/p95/p99 = %v/%v/%v disagree with Quantile", h.P50, h.P95, h.P99)
	}
}

// TestQuantileAccuracyUniform bounds the log2-bucket estimate against
// exact quantiles of a uniform distribution: within a factor of two
// (one bucket width) everywhere, and clamped to the true extremes.
func TestQuantileAccuracyUniform(t *testing.T) {
	r := NewRegistry()
	const n = 10000
	for i := 1; i <= n; i++ {
		r.Observe("u", float64(i))
	}
	h, _ := r.Snapshot().Histogram("u")
	for _, q := range []float64{0.50, 0.90, 0.95, 0.99} {
		exact := q * n
		got := h.Quantile(q)
		if got < exact/2 || got > exact*2 {
			t.Errorf("Quantile(%v) = %v, want within 2x of %v", q, got, exact)
		}
	}
	if h.Quantile(1.0) != n {
		t.Errorf("Quantile(1.0) = %v, want clamped to max %v", h.Quantile(1.0), float64(n))
	}
}

// TestQuantileEmptyAndSingle covers the degenerate shapes.
func TestQuantileEmptyAndSingle(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	r := NewRegistry()
	r.Observe("one", 42)
	h, _ := r.Snapshot().Histogram("one")
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("single-value Quantile(%v) = %v, want 42 (clamped to min=max)", q, got)
		}
	}
}

// TestExemplars: ObserveExemplar ties the latest trace ID to its
// bucket, bounded to one exemplar per bucket, and surfaces it in the
// snapshot next to the bucket it belongs to.
func TestExemplars(t *testing.T) {
	r := NewRegistry()
	r.ObserveExemplar("lat", 100, "req-a")  // bucket [64,128)
	r.ObserveExemplar("lat", 120, "req-b")  // same bucket: latest wins
	r.ObserveExemplar("lat", 5000, "req-c") // bucket [4096,8192)
	r.ObserveExemplar("lat", 3, "")         // no trace ID: counted, no exemplar
	r.Observe("lat", 7)                     // plain observe coexists
	h, ok := r.Snapshot().Histogram("lat")
	if !ok {
		t.Fatal("histogram missing")
	}
	if h.Count != 5 {
		t.Fatalf("count = %d, want 5", h.Count)
	}
	found := map[string]float64{}
	for _, b := range h.Buckets {
		if b.Exemplar != nil {
			found[b.Exemplar.TraceID] = b.Exemplar.Value
			if v := b.Exemplar.Value; v >= b.Le || v < b.Le/2 {
				t.Errorf("exemplar %v outside its bucket (le=%v)", v, b.Le)
			}
		}
	}
	if len(found) != 2 {
		t.Fatalf("exemplars = %v, want exactly req-b and req-c", found)
	}
	if found["req-b"] != 120 {
		t.Errorf("bucket exemplar = %v, want latest observation 120 (req-b)", found)
	}
	if found["req-c"] != 5000 {
		t.Errorf("extreme exemplar = %v, want req-c at 5000", found)
	}
}
