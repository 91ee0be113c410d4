package mathx

import (
	"math"
	"math/bits"
	"math/rand"
)

// fastSource is a PCG XSL-RR 128/64 generator (O'Neill 2014): a 128-bit
// LCG state advanced with a fixed odd increment, whose output is the
// xor-folded state rotated by the top bits. It exists because the math/rand
// lagged-Fibonacci source behind NewRNG carries ~4.9 KB of state and pays a
// ~600-operation reseed on every Fork — measurable when training
// environments fork a fresh job-timeline stream per episode. fastSource is
// 32 bytes and forks by drawing two words, so Fork is O(copy).
//
// The stream is unrelated to NewRNG's for the same seed. The DQN agent's
// exploration and the training environment draw from it (NewFastRNG) as
// part of the nn.KernelFast stream definition; everything else keeps
// NewRNG.
type fastSource struct {
	hi, lo uint64
}

// pcgMulHi/pcgMulLo are the PCG default 128-bit multiplier
// 0x2360ed051fc65da44385df649fccf645; pcgIncHi/pcgIncLo the default odd
// increment 0x5851f42d4c957f2d14057b7ef767814f.
const (
	pcgMulHi = 0x2360ed051fc65da4
	pcgMulLo = 0x4385df649fccf645
	pcgIncHi = 0x5851f42d4c957f2d
	pcgIncLo = 0x14057b7ef767814f
)

// splitmix64 is the seed expander (Vigna): it turns correlated seeds into
// well-mixed state words.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newFastSource(hi, lo uint64) *fastSource {
	s := &fastSource{hi: splitmix64(hi), lo: splitmix64(lo)}
	// One step decorrelates the freshly mixed state from its seed words.
	s.Uint64()
	return s
}

// Uint64 implements rand.Source64.
func (s *fastSource) Uint64() uint64 {
	hi, lo := s.hi, s.lo
	// state = state*mul + inc over 128 bits.
	carryHi, mulLo := bits.Mul64(lo, pcgMulLo)
	mulHi := carryHi + hi*pcgMulLo + lo*pcgMulHi
	var carry uint64
	s.lo, carry = bits.Add64(mulLo, pcgIncLo, 0)
	s.hi, _ = bits.Add64(mulHi, pcgIncHi, carry)
	// XSL-RR output of the pre-advance state.
	return bits.RotateLeft64(hi^lo, -int(hi>>58))
}

// Int63 implements rand.Source.
func (s *fastSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *fastSource) Seed(seed int64) {
	*s = *newFastSource(uint64(seed), uint64(seed)+1)
}

// NewFastRNG returns an RNG backed by the PCG fastSource instead of
// math/rand's default source. It draws a different (but equally
// deterministic) stream than NewRNG for the same seed; its advantage is
// Fork, which derives a child in O(copy) instead of the default source's
// ~4.9 KB reseed. Forked children are fast as well.
func NewFastRNG(seed int64) *RNG {
	src := newFastSource(uint64(seed), uint64(seed)^0x9e3779b97f4a7c15)
	return &RNG{r: rand.New(src), fast: src}
}

// forkFast derives an O(copy) child generator, consuming two words of the
// parent stream.
func (g *RNG) forkFast() *RNG {
	src := newFastSource(g.fast.Uint64(), g.fast.Uint64())
	return &RNG{r: rand.New(src), fast: src}
}

// FastPow computes x^p as exp(p*log(x)) — one transcendental pair instead
// of math.Pow's careful decomposition. For x > 0 it agrees with math.Pow to
// within a couple of ULPs (and handles x == 0 with the same ±Inf limits),
// which is ample for replay-priority shaping; it is not a bit-compatible
// replacement, so it is part of the nn.KernelFast stream definition.
func FastPow(x, p float64) float64 { return math.Exp(p * math.Log(x)) }
