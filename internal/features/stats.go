package features

// SummaryStats accumulates streaming per-dimension summary statistics
// (count, mean, variance) over feature vectors using Welford's online
// algorithm, so the rolling feature distribution of a live node fleet can
// be summarized in O(Dim) memory without retaining samples. It backs the
// serving layer's drift detection: a frozen reference window is compared
// against the current window with a standardized mean-shift statistic.
//
// The zero value is an empty accumulator, ready to use. SummaryStats is
// not safe for concurrent use; callers that share one across goroutines
// must synchronize (the lifecycle learner feeds it from a single loop).
type SummaryStats struct {
	n    float64
	mean Vector
	m2   Vector
}

// Observe folds one feature vector into the statistics.
func (s *SummaryStats) Observe(v Vector) {
	s.n++
	for i := 0; i < Dim; i++ {
		delta := v[i] - s.mean[i]
		s.mean[i] += delta / s.n
		s.m2[i] += delta * (v[i] - s.mean[i])
	}
}

// Count reports the number of observed vectors.
func (s *SummaryStats) Count() int { return int(s.n) }

// Mean returns the running mean of dimension i (0 when empty).
func (s *SummaryStats) Mean(i int) float64 { return s.mean[i] }

// Variance returns the running population variance of dimension i
// (0 with fewer than two samples).
func (s *SummaryStats) Variance(i int) float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2[i] / s.n
}

// Reset empties the accumulator.
func (s *SummaryStats) Reset() { *s = SummaryStats{} }
