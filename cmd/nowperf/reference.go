package main

import (
	"sort"
	"time"
)

// The reference kernel: a fixed piece of work that calls nothing of the
// program under test and allocates nothing, read in the same moment as
// every timed unit. A vCPU of the shared host this benchmark runs on
// executes compare-and-branch code anywhere between 1x and ~1.9x its best
// time, in spells of seconds to minutes that outlast a run, so no
// estimator inside one run averages the spell out — but the ratio of the
// program's time to the kernel's time, read back to back, survives it.
//
// One kernel is sort.Ints over a copy of refSortN fixed pseudo-random ints,
// repeated refSortReps times (about a third of it: branchy, cache-resident
// work like the simulator's bookkeeping), then refChaseSteps dependent
// loads round one Sattolo cycle through a 1 MB table (the rest: the
// pointer-chasing that walks and exchanges over a 10-20 MB world do). A
// pure-ALU loop tracks the simulator badly, and the sort or the chase alone
// each track only one world size; the pair tracks all three churn
// workloads.
//
// One reading is refKernels kernels timed as one, after one kernel that is
// not timed: the first kernel after a unit runs 15-20% slower than the
// next ones, on cold caches and predictors — a cost that is the unit's
// footprint, not the host's speed — and a single 3 ms kernel is short
// against the host's millisecond bursts (ten runs of one seed in a bad
// spell, quartile spread of ops_per_s / lat_ms_p50 / lat_ms_p90: one cold
// kernel 13.0 / 13.8 / 10.9% on churn_large and 7.5 / 9.1 / 9.2% on
// churn_resize, this reading 8.5 / 7.4 / 12.9% and 4.6 / 4.7 / 6.9%).
const (
	refSortN      = 8192
	refSortReps   = 2
	refChaseLen   = 1 << 18     // uint32 entries: 1 MB
	refChaseSteps = refChaseLen // once round the cycle
	refKernels    = 4

	// refNominal is one reading — the mean kernel — on an undisturbed vCPU
	// of this host class (Xeon 2.1 GHz, 4 MB private L2). It only fixes the
	// scale of the nominal-host times; comparisons between two commits
	// never see it.
	refNominal = 3000 * time.Microsecond
)

var (
	refSrc   [refSortN]int
	refBuf   [refSortN]int
	refChase [refChaseLen]uint32
	refSink  uint32
)

func init() {
	// xorshift64*: the kernel's inputs are fixed, not seeded.
	s := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 0x2545F4914F6CDD1D
	}
	for i := range refSrc {
		refSrc[i] = int(next() >> 1)
	}
	// Sattolo's algorithm: a uniformly random single cycle, so the chase
	// visits every entry before repeating and no prefetcher can follow it.
	for i := range refChase {
		refChase[i] = uint32(i)
	}
	for i := refChaseLen - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		refChase[i], refChase[j] = refChase[j], refChase[i]
	}
}

// refKernel runs the kernel once.
func refKernel() uint32 {
	for k := 0; k < refSortReps; k++ {
		copy(refBuf[:], refSrc[:])
		sort.Ints(refBuf[:])
	}
	j := uint32(refBuf[0] & (refChaseLen - 1))
	for k := 0; k < refChaseSteps; k++ {
		j = refChase[j]
	}
	return j
}

// refReading takes one reading: the mean time of a kernel. It must run on
// the goroutine (and, for the serial workloads, the locked OS thread) that
// runs the timed units, so that reading and unit share a CPU.
func refReading() time.Duration {
	// Untimed: brings tables, buffer and predictors back after whatever the
	// unit evicted, so a reading starts from the same state after a 20 MB
	// unit and after a 10 KB one.
	sink := refKernel()
	t0 := time.Now()
	for k := 0; k < refKernels; k++ {
		sink += refKernel()
	}
	d := time.Since(t0) / refKernels
	refSink += sink
	return d
}

// hostFactor is how much slower than nominal the host ran between two
// readings: their mean over refNominal.
func hostFactor(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refNominal)
}

// onNominalHost rescales a duration measured while the host ran at the
// given factor to what it would have read on the nominal host.
func onNominalHost(d time.Duration, factor float64) time.Duration {
	return time.Duration(float64(d) / factor)
}
