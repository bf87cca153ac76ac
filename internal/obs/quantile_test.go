package obs

import (
	"strings"
	"testing"
)

func TestQuantileEmptyAndNil(t *testing.T) {
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("zero snapshot Quantile = %g", got)
	}
	r := NewRun("test")
	if got := r.Histogram("t.empty").snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram Quantile = %g", got)
	}
}

func TestQuantileZeros(t *testing.T) {
	r := NewRun("test")
	h := r.Histogram("t.zeros")
	for i := 0; i < 4; i++ {
		h.Observe(0)
	}
	if got := h.snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("all-zero p50 = %g, want 0", got)
	}
}

// TestQuantileBucketFidelity: the estimate lands inside the log₂ bucket
// that holds the target rank — the exact promise the buckets make.
func TestQuantileBucketFidelity(t *testing.T) {
	r := NewRun("test")
	h := r.Histogram("t.uniform")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.snapshot()
	// Rank 500 sits in bucket [512, 1023)? No: 500 has bits.Len=9 →
	// bucket le=511 covering [256, 511]. The estimate must land there.
	if p50 := s.Quantile(0.50); p50 < 256 || p50 > 511 {
		t.Errorf("p50 = %g, want within [256, 511]", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 512 || p99 > 1023 {
		t.Errorf("p99 = %g, want within [512, 1023]", p99)
	}
	// Monotone in q.
	if s.Quantile(0.5) > s.Quantile(0.95) || s.Quantile(0.95) > s.Quantile(0.99) {
		t.Error("quantiles not monotone in q")
	}
	// Out-of-range q clamps rather than panics.
	if s.Quantile(-3) != s.Quantile(0) || s.Quantile(7) != s.Quantile(1) {
		t.Error("out-of-range q did not clamp")
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	r := NewRun("test")
	h := r.Histogram("t.single")
	h.Observe(10) // bucket [8, 15]
	s := h.snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got < 8 || got > 15 {
			t.Errorf("Quantile(%g) = %g, want within [8, 15]", q, got)
		}
	}
}

// TestWriteSummaryQuantiles: the human summary renders p50/p95/p99 for
// each histogram.
func TestWriteSummaryQuantiles(t *testing.T) {
	r := NewRun("test")
	h := r.Histogram("t.lat_ms")
	for _, v := range []int64{1, 2, 3, 100, 200} {
		h.Observe(v)
	}
	var b strings.Builder
	r.WriteSummary(&b)
	out := b.String()
	if !strings.Contains(out, "t.lat_ms") || !strings.Contains(out, "p50=") ||
		!strings.Contains(out, "p95=") || !strings.Contains(out, "p99=") {
		t.Fatalf("summary missing histogram quantiles:\n%s", out)
	}
}
