// Package prof gives the command-line tools the standard -cpuprofile and
// -memprofile flags, backed by runtime/pprof, so a slow run can be
// profiled without a throwaway test:
//
//	nowbench -exp E6 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
package prof

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile output paths; empty = that profile is off.
type Flags struct {
	CPU string
	Mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile (live and cumulative allocations) at the end of the run to this file")
}

// Start begins CPU profiling when -cpuprofile is set and returns the
// function that ends the run's profiling: it stops the CPU profile, closes
// its file and, when -memprofile is set, writes the heap profile after a
// GC. Callers defer stop right after a successful Start so every exit path
// closes the files; stop returns the first error it met.
func (f Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(fmt.Errorf("cpuprofile: %w", err), cpu.Close())
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
			}
		}
		if f.Mem != "" {
			if err := writeHeap(f.Mem); err != nil {
				errs = append(errs, fmt.Errorf("memprofile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeap(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // bring the live-heap figures up to date
	return errors.Join(pprof.WriteHeapProfile(out), out.Close())
}
