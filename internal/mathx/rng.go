// Package mathx provides deterministic random-number utilities and the
// statistical distributions used by the telemetry and job simulators, plus
// small online-statistics helpers shared across the repository.
//
// Everything in this package is built on math/rand with explicit sources so
// that every simulation in the repository is reproducible from a single
// seed. The RNG type deliberately mirrors the subset of *rand.Rand that the
// simulators need, adding the distributions (Poisson, log-normal, bounded
// Pareto) that the standard library does not provide.
//
//uerl:deterministic
package mathx

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random number generator. It wraps *rand.Rand and
// adds the distributions needed by the simulators. The zero value is not
// usable; construct with NewRNG.
type RNG struct {
	r *rand.Rand
	// fast is non-nil when the RNG is backed by the O(copy)-forkable PCG
	// source (NewFastRNG) instead of math/rand's default source.
	fast *fastSource
}

// NewRNG returns an RNG seeded with seed. Two RNGs built from the same seed
// produce identical streams.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives a new independent RNG from this one. Forked generators are
// used to give each simulated component (node, DIMM, job stream) its own
// stream so that changing the amount of randomness consumed by one component
// does not perturb the others. Children inherit the parent's source family:
// a NewFastRNG parent forks fast children in O(copy).
func (g *RNG) Fork() *RNG {
	if g.fast != nil {
		return g.forkFast()
	}
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Exponential returns an exponential variate with the given mean.
// A non-positive mean returns 0.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's multiplication method; for large means a normal approximation
// keeps it O(1) (the simulators call this per DIMM per day).
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := mean + math.Sqrt(mean)*g.r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal distribution (mu is the mean of log X, sigma its
// standard deviation).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// BoundedPareto returns a variate from a Pareto distribution with shape
// alpha truncated to [lo, hi]. It is used for HPC job node counts, which are
// heavy-tailed but bounded by the system size. lo and hi must be positive
// with lo < hi; alpha must be positive.
func (g *RNG) BoundedPareto(alpha, lo, hi float64) float64 {
	if lo >= hi {
		return lo
	}
	u := g.r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Geometric returns a geometric variate: the number of failures before the
// first success for success probability p in (0, 1]. Values are in [0, inf).
func (g *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return math.MaxInt32
	}
	// Inverse transform: floor(log(U)/log(1-p)).
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return int(math.Log(u) / math.Log(1-p))
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights are treated as zero. If all
// weights are zero it returns a uniform index.
func (g *RNG) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return g.r.Intn(len(weights))
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
