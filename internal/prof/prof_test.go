package prof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.Register(fs)
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i % 7
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
	// A second run can profile again: the CPU profiler was released.
	stop, err = f.Start()
	if err != nil {
		t.Fatalf("second Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartOffIsInert(t *testing.T) {
	stop, err := Flags{}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestBadPathsFail(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "p.out")
	if _, err := (Flags{CPU: missing}).Start(); err == nil {
		t.Error("Start accepted an uncreatable -cpuprofile path")
	}
	stop, err := Flags{Mem: missing}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("stop accepted an uncreatable -memprofile path")
	}
}
