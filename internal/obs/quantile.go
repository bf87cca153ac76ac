package obs

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values by
// linear interpolation inside the log₂ bucket that contains the target
// rank. Bucket b covers [2^(b-1), 2^b) (bucket 0 is exactly zero), so the
// estimate is exact for zeros, within a factor of two otherwise — the same
// fidelity the buckets themselves promise. Returns 0 when empty. Manifest
// consumers (the summary renderer, the Prometheus writer's operators)
// derive p50/p95/p99 from the serialized buckets with it.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for _, b := range s.Buckets {
		lo, hi := bucketBounds(b.Le)
		c := float64(b.Count)
		if cum+c >= target {
			frac := (target - cum) / c
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	// Rounding pushed the target past the last bucket: clamp to its top.
	_, hi := bucketBounds(s.Buckets[len(s.Buckets)-1].Le)
	return hi
}

// bucketBounds recovers the value range [lo, hi] a bucket with upper bound
// le covers. le is 2^b - 1 for b ≥ 1 and 0 for the zero bucket.
func bucketBounds(le int64) (lo, hi float64) {
	if le <= 0 {
		return 0, 0
	}
	// le = 2^b - 1 → previous bucket ended at 2^(b-1) - 1.
	return float64(le+1) / 2, float64(le)
}
