// Package xrand provides the deterministic randomness substrate used by
// every stochastic component of the simulator.
//
// All protocol randomness flows through a *Rand so that simulation runs are
// reproducible from a single seed. Streams can be split hierarchically
// (Split) so that independent subsystems consume independent substreams and
// adding randomness consumption to one subsystem does not perturb another.
package xrand

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// Rand is a deterministic, splittable pseudo-random stream.
//
// It is NOT safe for concurrent use; give each goroutine its own stream via
// Split.
type Rand struct {
	src *rand.Rand
	// pcg is src's generator. Intn calls it directly, PCG hands it to a
	// caller that draws words inline, and SplitInto reseeds it in place.
	pcg *rand.PCG
}

// newRand wraps a PCG seeded with (a, b) into a stream.
func newRand(a, b uint64) *Rand {
	pcg := rand.NewPCG(a, b)
	return &Rand{src: rand.New(pcg), pcg: pcg}
}

// New returns a stream seeded from seed.
func New(seed uint64) *Rand {
	return newRand(seed, seed^0x9e3779b97f4a7c15)
}

// Split derives an independent substream. The derivation mixes a label so
// that distinct labels yield decorrelated streams.
func (r *Rand) Split(label uint64) *Rand {
	a := r.src.Uint64()
	b := r.src.Uint64()
	return newRand(mix(a, label), mix(b, ^label))
}

// Derive returns a stream that is a pure function of base and the labels:
// unlike Split it consumes no state from any parent stream, so callers may
// derive substreams lazily and in any order without perturbing each other.
// The loopback transport keys one fault stream per directed link this way
// ((from, to) labels), making drop and jitter draws independent of the
// order links first carry traffic.
func Derive(base uint64, labels ...uint64) *Rand {
	a := mix(base, 0x6e6f776e65740001)
	b := mix(^base, 0x6e6f776e65740002)
	for _, l := range labels {
		a = mix(a, l)
		b = mix(b, ^l)
	}
	return newRand(a, b)
}

// SplitInto reseeds dst in place to the exact substream Split(label) would
// have returned, consuming the same two state words from r. A zero-value
// dst is initialized on first use; afterwards reseeding allocates nothing,
// so a loop can derive one substream per iteration without garbage. dst
// must not be a stream whose generator is shared (i.e. only zero values
// and previous SplitInto targets are valid destinations).
func (r *Rand) SplitInto(dst *Rand, label uint64) {
	a := r.src.Uint64()
	b := r.src.Uint64()
	if dst.pcg == nil {
		dst.pcg = rand.NewPCG(mix(a, label), mix(b, ^label))
		dst.src = rand.New(dst.pcg)
		return
	}
	dst.pcg.Seed(mix(a, label), mix(b, ^label))
}

// mix is a SplitMix64-style finalizer combining a state word with a label.
func mix(x, label uint64) uint64 {
	x += 0x9e3779b97f4a7c15 + label
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers validate n at protocol boundaries.
//
// It is math/rand/v2's (*Rand).IntN run over the stream's own PCG: the
// same reduction of the same words, so the same values, with each word a
// direct, inlined PCG.Uint64 call instead of a call through the Source
// interface. (On 32-bit platforms math/rand/v2 computes the same value in
// 32-bit halves.)
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: invalid argument to Intn")
	}
	return int(r.IntnFrom(r.pcg.Uint64(), uint64(n)))
}

// PCG returns the stream's generator, for a hot loop that draws words
// inline: a word drawn from it is the word the stream's next draw would
// have taken, and reducing it with IntnFrom is Intn.
func (r *Rand) PCG() *rand.PCG { return r.pcg }

// IntnFrom reduces word, the stream's next PCG word, to a uniform value in
// [0, n), n > 0, drawing further words from the stream only when the
// reduction rejects word. It is math/rand/v2's uint64n: a mask when n is a
// power of two, else Lemire's multiply-shift, which rejects the 2^64 mod n
// low products that would bias it. It is the tree's one such reduction;
// Intn(n) is IntnFrom(PCG().Uint64(), n).
func (r *Rand) IntnFrom(word, n uint64) uint64 {
	if n&(n-1) == 0 {
		return word & (n - 1)
	}
	hi, lo := bits.Mul64(word, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.pcg.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.src.Float64() < p }

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: non-positive exponential rate")
	}
	// Inverse CDF on (0,1]; 1-Float64() avoids log(0).
	return -math.Log(1-r.src.Float64()) / rate
}

// Perm returns a uniform permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle permutes the first n elements using swap, Fisher-Yates.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// SampleWithoutReplacement returns m distinct uniform indices from [0, n).
// It panics if m > n.
func SampleWithoutReplacement(r *Rand, n, m int) []int {
	if m > n {
		panic("xrand: sample larger than population")
	}
	// Floyd's algorithm: O(m) expected work, no O(n) allocation.
	chosen := make(map[int]struct{}, m)
	out := make([]int, 0, m)
	for j := n - m; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
