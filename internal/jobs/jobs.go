// Package jobs synthesizes MareNostrum-4-style HPC job traces (§2.2): the
// proprietary Slurm/sacct log is replaced by a heavy-tailed generator whose
// node-count and duration distributions span the orders of magnitude the
// paper reports (potential UE costs up to ≈32,000 node–hours), plus the
// node-weighted job sampler used to assemble per-node episode job sequences
// (§3.3.3) and the job-size scaling factor of the §5.6 sensitivity
// analysis.
package jobs

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/mathx"
)

// Job is one scheduler record, in the spirit of `sacct` output.
type Job struct {
	// ID is a unique job identifier.
	ID int
	// Nodes is the number of allocated nodes.
	Nodes int
	// Duration is the wallclock run time.
	Duration time.Duration
}

// NodeHours returns the job's total compute volume in node–hours.
func (j Job) NodeHours() float64 {
	return float64(j.Nodes) * j.Duration.Hours()
}

// Config parameterizes the trace generator.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Count is the number of jobs in the trace.
	Count int
	// MaxNodes caps allocations at the system size (MN4: 3456).
	MaxNodes int
	// NodesAlpha is the bounded-Pareto shape for node counts; smaller is
	// heavier-tailed.
	NodesAlpha float64
	// DurationMedianHours and DurationSigma parameterize the log-normal
	// wallclock distribution.
	DurationMedianHours float64
	DurationSigma       float64
	// MaxDurationHours caps wallclock at the scheduler limit (MN: 72 h).
	MaxDurationHours float64
	// SizeScale multiplies node counts — the §5.6 job-size scaling factor.
	// 1 reproduces the MN4 distribution.
	SizeScale float64
}

// Default returns the MN4-calibrated configuration: mostly small jobs with
// a heavy tail, maximum potential cost ≈ 32k node–hours (e.g. a 448-node
// job at the 72 h limit).
func Default() Config {
	return Config{
		Seed:                1,
		Count:               20000,
		MaxNodes:            3456,
		NodesAlpha:          0.75,
		DurationMedianHours: 3,
		DurationSigma:       1.4,
		MaxDurationHours:    72,
		SizeScale:           1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Count <= 0 {
		return fmt.Errorf("jobs: Count must be positive, got %d", c.Count)
	}
	if c.MaxNodes <= 0 {
		return fmt.Errorf("jobs: MaxNodes must be positive, got %d", c.MaxNodes)
	}
	if !(c.SizeScale > 0) || math.IsInf(c.SizeScale, 1) {
		return fmt.Errorf("jobs: SizeScale must be positive and finite, got %v", c.SizeScale)
	}
	if c.MaxDurationHours <= 0 {
		return fmt.Errorf("jobs: MaxDurationHours must be positive, got %v", c.MaxDurationHours)
	}
	return nil
}

// WithScale returns a copy with the job-size scaling factor set.
func (c Config) WithScale(f float64) Config {
	c.SizeScale = f
	return c
}

// Generate synthesizes a job trace.
func Generate(cfg Config) []Job {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := mathx.NewRNG(cfg.Seed)
	out := make([]Job, cfg.Count)
	mu := math.Log(cfg.DurationMedianHours)
	for i := range out {
		nodes := cfg.SizeScale * rng.BoundedPareto(cfg.NodesAlpha, 1, float64(cfg.MaxNodes))
		n := int(nodes + 0.5)
		if n < 1 {
			n = 1
		}
		hours := rng.LogNormal(mu, cfg.DurationSigma)
		if hours > cfg.MaxDurationHours {
			hours = cfg.MaxDurationHours
		}
		if hours < 0.05 {
			hours = 0.05
		}
		out[i] = Job{
			ID:       i + 1,
			Nodes:    n,
			Duration: time.Duration(hours * float64(time.Hour)),
		}
	}
	return out
}

// Sampler draws jobs weighted by their node count. The paper (§3.3.3)
// weights the episode job sequence by the number of nodes each job runs on,
// so that the job mix seen *per node* matches the production distribution:
// a 100-node job occupies 100 node-slots and is therefore 100× more likely
// to be the job running on a randomly chosen node than a 1-node job of the
// same duration.
type Sampler struct {
	jobs  []Job
	cum   []float64 // cumulative node-count weights
	total float64
	// lut is an equi-probability bucket index over cum: lut[k] is the
	// first index whose cumulative weight reaches bucket k's lower bound,
	// so a draw binary-searches only within one bucket (O(1) expected)
	// instead of the whole trace. The draw and the selected index are
	// identical to a plain SearchFloat64s over cum — the replay engine
	// samples jobs on every tick gap, making this lookup a hot path.
	lut []int32
}

// samplerBucketsPerJob sizes the lookup table relative to the trace so the
// expected bucket occupancy is below one job.
const samplerBucketsPerJob = 1

// NewSampler builds a node-weighted sampler over trace. It panics on an
// empty trace.
func NewSampler(trace []Job) *Sampler {
	if len(trace) == 0 {
		panic("jobs: empty trace")
	}
	s := &Sampler{jobs: trace, cum: make([]float64, len(trace))}
	run := 0.0
	for i, j := range trace {
		run += float64(j.Nodes)
		s.cum[i] = run
	}
	s.total = run

	nb := len(trace) * samplerBucketsPerJob
	s.lut = make([]int32, nb+1)
	idx := 0
	for k := 0; k <= nb; k++ {
		bound := s.total * float64(k) / float64(nb)
		for idx < len(s.cum) && s.cum[idx] < bound {
			idx++
		}
		s.lut[k] = int32(idx)
	}
	return s
}

// Sample draws one job, weighted by node count.
func (s *Sampler) Sample(rng *mathx.RNG) Job {
	x := rng.Float64() * s.total
	// Narrow to the bucket containing x, then search only that range, and
	// finally nudge against the exact SearchFloat64s invariant (smallest i
	// with cum[i] >= x) in case float rounding at a bucket boundary placed
	// the bracket one slot off. cum is strictly increasing (every job has
	// at least one node), so the nudge loops run at most once in practice.
	nb := len(s.lut) - 1
	k := int(x / s.total * float64(nb))
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
	return s.jobs[idx]
}

// TraceStats summarizes a trace for calibration and tooling.
type TraceStats struct {
	Count          int
	MeanNodes      float64
	P99Nodes       float64
	MaxNodes       int
	MeanHours      float64
	MaxNodeHours   float64
	TotalNodeHours float64
}

// Stats computes TraceStats.
func Stats(trace []Job) TraceStats {
	st := TraceStats{Count: len(trace)}
	if len(trace) == 0 {
		return st
	}
	nodes := make([]float64, len(trace))
	for i, j := range trace {
		nodes[i] = float64(j.Nodes)
		st.MeanNodes += float64(j.Nodes)
		st.MeanHours += j.Duration.Hours()
		nh := j.NodeHours()
		st.TotalNodeHours += nh
		if nh > st.MaxNodeHours {
			st.MaxNodeHours = nh
		}
		if j.Nodes > st.MaxNodes {
			st.MaxNodes = j.Nodes
		}
	}
	st.MeanNodes /= float64(len(trace))
	st.MeanHours /= float64(len(trace))
	st.P99Nodes = mathx.Quantile(nodes, 0.99)
	return st
}
