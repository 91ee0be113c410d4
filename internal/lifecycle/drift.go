package lifecycle

import (
	"math"

	"repro/internal/features"
)

// DriftConfig parameterizes the feature-distribution drift detector.
type DriftConfig struct {
	// Threshold is the standardized mean-shift score at which a window is
	// declared drifted (default 6; the score is a max over feature
	// dimensions of a Welch-style z statistic, so ordinary sampling noise
	// stays in the low single digits).
	Threshold float64
	// WindowSamples is the number of feature vectors per comparison
	// window (default 512). The first full window becomes the reference;
	// each subsequent full (tumbling) window is tested against it.
	WindowSamples int
	// Dims lists the feature dimensions to monitor; nil monitors all.
	// Cumulative features (total CEs, spread counts, boots) are monotone
	// by construction, so a mean-shift test over them fires on any
	// healthy stream; serving-layer callers monitor the stationary
	// subset (StationaryDriftDims).
	Dims []int
}

// StationaryDriftDims are the feature dimensions that are stationary
// under a stable fault process and workload: the per-tick CE rate, the
// Eq. 2 variation ratios, and the Eq. 3 potential-cost feature. These are
// the defaults the serving layer monitors for drift; the cumulative
// counters are excluded because they grow monotonically on any stream.
var StationaryDriftDims = []int{
	features.CEsSinceLastEvent,
	features.CEVar1Min,
	features.CEVar1Hour,
	features.BootVar1Min,
	features.BootVar1Hour,
	features.UECost,
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Threshold <= 0 {
		c.Threshold = 6
	}
	if c.WindowSamples <= 0 {
		c.WindowSamples = 512
	}
	return c
}

// Drift is the outcome of one window comparison.
type Drift struct {
	// Drifted reports whether Score reached the configured threshold.
	Drifted bool
	// Score is the maximum per-dimension standardized mean shift between
	// the reference window and the tested window.
	Score float64
	// Dim is the feature dimension attaining Score.
	Dim int
	// Windows is the number of completed window comparisons so far.
	Windows int
}

// DriftDetector watches the rolling distribution of served feature
// vectors for shifts that invalidate the trained policy (DIMM aging,
// manufacturer mix, workload changes). It compares tumbling windows of
// streaming summary statistics (features.SummaryStats) against a frozen
// reference window using a per-dimension Welch z statistic
//
//	z_i = |mean_cur,i − mean_ref,i| / sqrt(var_ref,i/n_ref + var_cur,i/n_cur)
//
// and reports drift when max_i z_i crosses the threshold. Deterministic:
// the same vector sequence produces the same drift verdicts. Not safe for
// concurrent use; the learning loop owns it.
type DriftDetector struct {
	cfg     DriftConfig
	ref     features.SummaryStats
	cur     features.SummaryStats
	hasRef  bool
	windows int
}

// NewDriftDetector builds a detector with cfg (zero fields take defaults).
func NewDriftDetector(cfg DriftConfig) *DriftDetector {
	return &DriftDetector{cfg: cfg.withDefaults()}
}

// Observe folds one served feature vector into the current window. When
// the window completes it is compared against the reference (the first
// completed window) and the comparison is returned with ok=true; mid-
// window observations return ok=false.
func (d *DriftDetector) Observe(v features.Vector) (res Drift, ok bool) {
	d.cur.Observe(v)
	if d.cur.Count() < d.cfg.WindowSamples {
		return Drift{}, false
	}
	if !d.hasRef {
		// First full window: becomes the reference distribution.
		d.ref = d.cur
		d.hasRef = true
		d.cur.Reset()
		return Drift{}, false
	}
	d.windows++
	res = d.compare()
	res.Windows = d.windows
	d.cur.Reset()
	return res, true
}

// compare scores the current window against the reference.
func (d *DriftDetector) compare() Drift {
	nRef, nCur := float64(d.ref.Count()), float64(d.cur.Count())
	dims := d.cfg.Dims
	if dims == nil {
		dims = allDims
	}
	out := Drift{}
	for _, i := range dims {
		shift := math.Abs(d.cur.Mean(i) - d.ref.Mean(i))
		if shift == 0 {
			continue
		}
		se := math.Sqrt(d.ref.Variance(i)/nRef + d.cur.Variance(i)/nCur)
		var z float64
		if se == 0 {
			// Two degenerate (zero-variance) windows with different
			// means: an unambiguous shift.
			z = math.Inf(1)
		} else {
			z = shift / se
		}
		if z > out.Score {
			out.Score, out.Dim = z, i
		}
	}
	out.Drifted = out.Score >= d.cfg.Threshold
	return out
}

// allDims enumerates every feature dimension (the nil-Dims default).
var allDims = func() []int {
	out := make([]int, features.Dim)
	for i := range out {
		out[i] = i
	}
	return out
}()

// Rebase discards the reference and any partial window, so the next full
// window becomes the new reference. The lifecycle calls it after a model
// swap: the post-swap distribution is the new normal.
func (d *DriftDetector) Rebase() {
	d.ref.Reset()
	d.cur.Reset()
	d.hasRef = false
}
