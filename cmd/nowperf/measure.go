package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// unit is one timed unit of work: a sim.Runner.Continue call, one
// ExecBatch step or one committee decision.
type unit struct {
	wall, cpu time.Duration // as the clock and getrusage read them
	factor    float64       // host factor while it ran
	ops       int
	latency   bool // counts towards lat_ms_p50 / lat_ms_p90
}

// meter times units from outside and brackets each with reference
// readings. All of it runs on the caller's goroutine.
type meter struct {
	last    time.Duration // the reading taken after the previous unit
	factors []float64     // every host factor seen, set-ups included
	t0      time.Time
	c0      time.Duration
}

func newMeter() *meter { return &meter{last: refReading()} }

// reread replaces the "before" reading, after untimed work (a warm-up, a
// fingerprint) has separated the last reading from the next unit.
func (m *meter) reread() { m.last = refReading() }

func (m *meter) start() {
	m.c0 = cpuTime()
	m.t0 = time.Now()
}

// stop ends the measurement start began and takes the reading after it;
// the readings themselves are in neither wall nor cpu.
func (m *meter) stop() (wall, cpu time.Duration, factor float64) {
	wall = time.Since(m.t0)
	cpu = cpuTime() - m.c0
	next := refReading()
	factor = hostFactor(m.last, next)
	m.last = next
	m.factors = append(m.factors, factor)
	return wall, cpu, factor
}

// cpuTime is the process's user + system time so far, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// quantile is the nearest-rank q-quantile of xs; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timing is the four time-valued end-to-end metrics of one run.
type timing struct {
	opsPerS, latP50, latP90, cpuMsPerOp float64
	latSamples                          int
}

// summarize folds the units into the time metrics, either on the nominal
// host (each unit's times divided by its host factor) or as the clock read
// them. scaleWall is false for wire_tcp, whose wall time is four timers.
func summarize(units []unit, nominal, scaleWall bool) timing {
	var ops int
	var wall, cpu float64 // seconds
	var lats []float64
	for _, u := range units {
		fw, fc := 1.0, 1.0
		if nominal {
			fc = u.factor
			if scaleWall {
				fw = u.factor
			}
		}
		w := u.wall.Seconds() / fw
		ops += u.ops
		wall += w
		cpu += u.cpu.Seconds() / fc
		if u.latency {
			lats = append(lats, w*1e3)
		}
	}
	t := timing{latSamples: len(lats)}
	if ops == 0 || wall == 0 {
		return t
	}
	t.opsPerS = float64(ops) / wall
	t.cpuMsPerOp = cpu * 1e3 / float64(ops)
	t.latP50 = quantile(lats, 0.5)
	t.latP90 = quantile(lats, 0.9)
	return t
}
