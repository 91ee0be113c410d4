package jobs

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/mathx"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Default()
	cfg.Count = 500
	a := Generate(cfg)
	b := Generate(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs", i)
		}
	}
}

func TestGenerateBounds(t *testing.T) {
	cfg := Default()
	cfg.Count = 5000
	for _, j := range Generate(cfg) {
		if j.Nodes < 1 || j.Nodes > cfg.MaxNodes+1 {
			t.Fatalf("nodes out of bounds: %d", j.Nodes)
		}
		if j.Duration <= 0 || j.Duration > time.Duration(cfg.MaxDurationHours*float64(time.Hour))+time.Second {
			t.Fatalf("duration out of bounds: %v", j.Duration)
		}
	}
}

func TestGenerateHeavyTail(t *testing.T) {
	cfg := Default()
	cfg.Count = 20000
	st := Stats(Generate(cfg))
	// Most jobs are small but the tail must reach hundreds of nodes.
	if st.P99Nodes < 50 {
		t.Fatalf("p99 nodes %.0f: tail too light", st.P99Nodes)
	}
	if st.MeanNodes > st.P99Nodes/3 {
		t.Fatalf("mean %.1f vs p99 %.0f: not heavy tailed", st.MeanNodes, st.P99Nodes)
	}
	// Paper: maximum potential UE cost ≈ 32,000 node–hours.
	if st.MaxNodeHours < 8000 || st.MaxNodeHours > 250000 {
		t.Fatalf("max node-hours %.0f outside calibration band", st.MaxNodeHours)
	}
}

func TestSizeScale(t *testing.T) {
	cfg := Default()
	cfg.Count = 10000
	base := Stats(Generate(cfg))
	scaled := Stats(Generate(cfg.WithScale(3)))
	ratio := scaled.MeanNodes / base.MeanNodes
	if ratio < 2 || ratio > 4 {
		t.Fatalf("scale 3 changed mean nodes by %.2f, want about 3", ratio)
	}
	down := Stats(Generate(cfg.WithScale(0.1)))
	if down.MeanNodes >= base.MeanNodes {
		t.Fatal("scale 0.1 did not shrink jobs")
	}
}

func TestNodeHours(t *testing.T) {
	j := Job{Nodes: 10, Duration: 90 * time.Minute}
	if got := j.NodeHours(); math.Abs(got-15) > 1e-9 {
		t.Fatalf("NodeHours = %v, want 15", got)
	}
}

func TestSamplerWeighting(t *testing.T) {
	trace := []Job{
		{ID: 1, Nodes: 1, Duration: time.Hour},
		{ID: 2, Nodes: 99, Duration: time.Hour},
	}
	s := NewSampler(trace)
	rng := mathx.NewRNG(1)
	big := 0
	for i := 0; i < 10000; i++ {
		if s.Sample(rng).ID == 2 {
			big++
		}
	}
	// Expect ≈99%.
	if big < 9700 || big > 10000 {
		t.Fatalf("node-weighted sampling drew the 99-node job %d/10000 times", big)
	}
}

func TestSamplerPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSampler(nil)
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Count: 0, MaxNodes: 10, SizeScale: 1, MaxDurationHours: 1},
		{Count: 10, MaxNodes: 0, SizeScale: 1, MaxDurationHours: 1},
		{Count: 10, MaxNodes: 10, SizeScale: 0, MaxDurationHours: 1},
		{Count: 10, MaxNodes: 10, SizeScale: math.NaN(), MaxDurationHours: 1},
		{Count: 10, MaxNodes: 10, SizeScale: math.Inf(1), MaxDurationHours: 1},
		{Count: 10, MaxNodes: 10, SizeScale: 1, MaxDurationHours: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := Default().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
}

func TestStatsEmpty(t *testing.T) {
	st := Stats(nil)
	if st.Count != 0 || st.MaxNodeHours != 0 {
		t.Fatal("empty stats should be zero")
	}
}

// TestSamplerBucketIndexMatchesFullSearch: the bucket-index fast path must
// select exactly the job a full binary search over the cumulative weights
// would, for draws spanning the whole range including bucket boundaries.
func TestSamplerBucketIndexMatchesFullSearch(t *testing.T) {
	trace := Generate(Config{Seed: 9, Count: 2000, MaxNodes: 3456, NodesAlpha: 0.75,
		DurationMedianHours: 3, DurationSigma: 1.4, MaxDurationHours: 72, SizeScale: 1})
	s := NewSampler(trace)
	ref := func(x float64) int {
		idx := sort.SearchFloat64s(s.cum, x)
		if idx >= len(s.jobs) {
			idx = len(s.jobs) - 1
		}
		return idx
	}
	// Random draws: the fast path and the reference must consume one
	// Float64 each and agree on the job.
	rngA, rngB := mathx.NewRNG(4), mathx.NewRNG(4)
	for i := 0; i < 20000; i++ {
		got := s.Sample(rngA)
		want := s.jobs[ref(rngB.Float64()*s.total)]
		if got != want {
			t.Fatalf("draw %d: fast %+v != reference %+v", i, got, want)
		}
	}
	// Exact boundary values: cumulative weights and bucket bounds.
	for i := 0; i < len(s.cum); i += 97 {
		for _, x := range []float64{s.cum[i], math.Nextafter(s.cum[i], 0), math.Nextafter(s.cum[i], s.total)} {
			lutIdx := func() int {
				nb := len(s.lut) - 1
				k := int(x / s.total * float64(nb))
				if k < 0 {
					k = 0
				}
				if k >= nb {
					k = nb - 1
				}
				lo, hi := int(s.lut[k]), int(s.lut[k+1])
				if hi < len(s.cum) {
					hi++
				}
				idx := lo + sort.SearchFloat64s(s.cum[lo:hi], x)
				for idx > 0 && s.cum[idx-1] >= x {
					idx--
				}
				for idx < len(s.cum) && s.cum[idx] < x {
					idx++
				}
				if idx >= len(s.jobs) {
					idx = len(s.jobs) - 1
				}
				return idx
			}()
			if lutIdx != ref(x) {
				t.Fatalf("x=%v: lut index %d != reference %d", x, lutIdx, ref(x))
			}
		}
	}
}
