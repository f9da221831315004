// Package xrand provides the deterministic randomness substrate used by
// every stochastic component of the simulator.
//
// All protocol randomness flows through a *Rand so that simulation runs are
// reproducible from a single seed. Streams can be split hierarchically
// (Split) so that independent subsystems consume independent substreams and
// adding randomness consumption to one subsystem does not perturb another.
package xrand

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"
)

// PCG is math/rand/v2's PCG-DXSM generator, ported bit for bit: the same
// 128-bit LCG step and the same DXSM output, so a PCG and a rand.PCG
// holding the same state draw the same words (TestPCGMatchesMathRand).
// Owning it lets a hot loop hold the state in registers (State, Next,
// SetState), and keeps Uint64 within the inliner's budget, so Intn pays
// no call per word. A zero PCG is a PCG seeded with (0, 0).
type PCG struct{ hi, lo uint64 }

// Seed resets p to the state (seed1, seed2), as rand.NewPCG(seed1, seed2).
func (p *PCG) Seed(seed1, seed2 uint64) { p.hi, p.lo = seed1, seed2 }

// State returns p's state.
func (p *PCG) State() (hi, lo uint64) { return p.hi, p.lo }

// SetState sets p's state, as returned by State or Next.
func (p *PCG) SetState(hi, lo uint64) { p.hi, p.lo = hi, lo }

// Next advances the state (hi, lo) by one step and returns the new state
// and the word p.Uint64 would have returned from (hi, lo).
func Next(hi, lo uint64) (nhi, nlo, word uint64) {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	// state = state * mul + inc
	nhi, nlo = bits.Mul64(lo, mulLo)
	nhi += hi*mulLo + lo*mulHi
	nlo, c := bits.Add64(nlo, incLo, 0)
	nhi, _ = bits.Add64(nhi, incHi, c)
	// DXSM, "double xorshift multiply", of the new state.
	const cheapMul = 0xda942042e4dd58b5
	word = nhi ^ nhi>>32
	word *= cheapMul
	word ^= word >> 48
	word *= nlo | 1
	return nhi, nlo, word
}

// Uint64 returns a uniformly distributed 64-bit word and advances p.
func (p *PCG) Uint64() uint64 {
	var word uint64
	p.hi, p.lo, word = Next(p.hi, p.lo)
	return word
}

// MarshalBinary encodes p's state as rand.PCG's MarshalBinary does, so
// rand.PCG.UnmarshalBinary reads it back.
func (p *PCG) MarshalBinary() ([]byte, error) {
	b := append(make([]byte, 0, 20), "pcg:"...)
	b = binary.BigEndian.AppendUint64(b, p.hi)
	return binary.BigEndian.AppendUint64(b, p.lo), nil
}

// Rand is a deterministic, splittable pseudo-random stream.
//
// It is NOT safe for concurrent use; give each goroutine its own stream via
// Split.
type Rand struct {
	// src wraps pcg for Perm and Shuffle only.
	src *rand.Rand
	// pcg is src's generator. Every other draw calls it directly, PCG
	// hands it to a caller that draws words inline, and SplitInto
	// reseeds it in place.
	pcg *PCG
}

// newRand wraps a PCG seeded with (a, b) into a stream.
func newRand(a, b uint64) *Rand {
	pcg := &PCG{a, b}
	return &Rand{src: rand.New(pcg), pcg: pcg}
}

// New returns a stream seeded from seed.
func New(seed uint64) *Rand {
	return newRand(seed, seed^0x9e3779b97f4a7c15)
}

// Split derives an independent substream. The derivation mixes a label so
// that distinct labels yield decorrelated streams.
func (r *Rand) Split(label uint64) *Rand {
	a := r.pcg.Uint64()
	b := r.pcg.Uint64()
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
	a := r.pcg.Uint64()
	b := r.pcg.Uint64()
	if dst.pcg == nil {
		dst.pcg = &PCG{mix(a, label), mix(b, ^label)}
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
func (r *Rand) Uint64() uint64 { return r.pcg.Uint64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers validate n at protocol boundaries.
//
// It is math/rand/v2's (*Rand).IntN run over the stream's own PCG: the
// same reduction of the same words, so the same values, with each word a
// direct, inlined PCG.Uint64 call instead of a call through the Source
// interface and Reduce's fast path inline; only a word Reduce cannot
// settle calls IntnFrom. (On 32-bit platforms math/rand/v2 computes the
// same value in 32-bit halves.)
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: invalid argument to Intn")
	}
	word := r.pcg.Uint64()
	if v, ok := Reduce(word, uint64(n)); ok {
		return int(v)
	}
	return int(r.IntnFrom(word, uint64(n)))
}

// PCG returns the stream's generator, for a hot loop that draws words
// inline: a word drawn from it is the word the stream's next draw would
// have taken, and reducing it with IntnFrom is Intn. A loop that holds
// the state in locals (State, Next) sets it back with SetState before it
// calls IntnFrom or hands the stream on.
func (r *Rand) PCG() *PCG { return r.pcg }

// Reduce is IntnFrom's fast path, for a loop that reduces its words
// inline: when ok, v is IntnFrom(word, n), n > 0, and word is consumed;
// when not, word may be rejected and only IntnFrom can reduce it. It
// rejects nothing when n is a power of two, and otherwise only words
// whose Lemire low product falls below n, about n in 2^64.
func Reduce(word, n uint64) (v uint64, ok bool) {
	if n&(n-1) == 0 {
		return word & (n - 1), true
	}
	hi, lo := bits.Mul64(word, n)
	return hi, lo >= n
}

// IntnFrom reduces word, the stream's next PCG word, to a uniform value in
// [0, n), n > 0, drawing further words from the stream only when the
// reduction rejects word. It is math/rand/v2's uint64n: a mask when n is a
// power of two, else Lemire's multiply-shift, which rejects the 2^64 mod n
// low products that would bias it. It is the tree's one such reduction,
// with Reduce its fast path; Intn(n) is IntnFrom(PCG().Uint64(), n).
func (r *Rand) IntnFrom(word, n uint64) uint64 {
	if v, ok := Reduce(word, n); ok {
		return v
	}
	hi, lo := bits.Mul64(word, n)
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.pcg.Uint64(), n)
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1): math/rand/v2's Float64,
// drawn from the stream's PCG without the Source interface.
func (r *Rand) Float64() float64 { return Float64From(r.pcg.Uint64()) }

// Float64From maps a PCG word to the float64 in [0, 1) math/rand/v2's
// Float64 makes of it: the word's low 53 bits over 2^53. A loop that
// draws words inline (Next) and compares Float64From(word) < p flips the
// coin Bool(p) would have flipped.
func Float64From(word uint64) float64 { return float64(word<<11>>11) / (1 << 53) }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: non-positive exponential rate")
	}
	// Inverse CDF on (0,1]; 1-Float64() avoids log(0).
	return -math.Log(1-r.Float64()) / rate
}

// Perm returns a uniform permutation of [0, n). Perm and Shuffle stay on
// math/rand/v2's own Rand: on 32-bit platforms their bounded draws take
// its 32-bit reduction (uint32n), which the stream does not port.
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
