package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// pass runs one invocation in-process at the smoke scale and returns its
// standard output.
func pass(t *testing.T, workload string, seed, trace int, out string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", "2",
		"--trace", strconv.Itoa(trace), "-scale", "smoke", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%d: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []jsonMetric            `json:"end_to_end"`
	PerLayer  []jsonMetric            `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The catalogue the program prints from and BENCHMARK.json name the same
// workloads and metrics, with the same units, directions and bounds.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		section string
		json    []jsonMetric
		defs    []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.section, len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if got := (metricDef{c.json[i].Name, c.json[i].Unit, c.json[i].Better, c.json[i].Bound}); got != d {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.section, i, got, d)
			}
		}
	}
}

var checkpointRE = regexp.MustCompile(`(?m)^quarter units=\d+ ops=\d+ (fingerprint=\S+ msgs_per_op=\S+ rounds_per_op=\S+)$`)

// quarterLine is what both passes of a seed must print alike.
func quarterLine(t *testing.T, output string) string {
	t.Helper()
	m := checkpointRE.FindStringSubmatch(output)
	if m == nil {
		t.Fatalf("no quarter line in:\n%s", output)
	}
	return m[1]
}

// checkPass checks one pass's output against its section of BENCHMARK.json:
// every metric printed by name with its unit, the result line carrying the
// same values, nothing failed.
func checkPass(t *testing.T, output string, metrics []jsonMetric, nonZero bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(output), "\n")
	var result struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, output)
	}
	if !result.Correct || result.Attempted < 1 || result.Failed != 0 {
		t.Errorf("result: correct %v, attempted %d, failed %d", result.Correct, result.Attempted, result.Failed)
	}
	if len(result.Metrics) != len(metrics) {
		t.Errorf("result line has %d metrics, BENCHMARK.json %d", len(result.Metrics), len(metrics))
	}
	type reading struct {
		value float64
		unit  string
	}
	printed := make(map[string]reading)
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 3 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				printed[f[0]] = reading{v, f[2]}
			}
		}
	}
	for _, m := range metrics {
		got, ok := result.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: result line has %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
			continue
		}
		if nonZero && got.Value == 0 {
			t.Errorf("%s is 0", m.Name)
		}
		if want := (reading{got.Value, m.Unit}); printed[m.Name] != want {
			t.Errorf("%s: printed %v, result line %v", m.Name, printed[m.Name], want)
		}
	}
}

// Both passes of all four workloads: every name in BENCHMARK.json printed
// with its unit, no end-to-end value 0, nothing failed, the span file
// written, the two passes of a seed at the same fingerprint and counts and
// two seeds at different ones.
func TestBothPassesOfEveryWorkload(t *testing.T) {
	b := readBenchmarkJSON(t)
	out := t.TempDir()
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			untraced := pass(t, w, 1, 0, out)
			checkPass(t, untraced, b.EndToEnd, true)
			for _, m := range []string{"setup_s", "ops_per_s", "lat_ms_p50", "lat_ms_p90", "cpu_ms_per_op"} {
				if !strings.Contains(untraced, "\nraw "+m+" ") {
					t.Errorf("no raw %s line", m)
				}
			}
			traced := pass(t, w, 1, 1, out)
			checkPass(t, traced, b.PerLayer, false)
			if a, b := quarterLine(t, untraced), quarterLine(t, traced); a != b {
				t.Errorf("the passes of seed 1 disagree:\nuntraced %s\ntraced   %s", a, b)
			}
			if _, isChurn := churnSpecs[w]; isChurn { // wire_tcp has no random input
				if a, b := quarterLine(t, untraced), quarterLine(t, pass(t, w, 2, 0, out)); a == b {
					t.Errorf("seeds 1 and 2 agree: %s", a)
				}
			}

			f, err := os.Open(filepath.Join(out, "trace-"+w+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			names := make(map[string]bool)
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				if s.ID == 0 || s.EndNS < s.StartNS {
					t.Errorf("bad span %+v", s)
				}
				names[s.Name] = true
			}
			for _, want := range []string{"workload", "setup", "unit"} {
				if !names[want] {
					t.Errorf("no %q span among %v", want, names)
				}
			}
		})
	}
}

// The reference: a reading allocates nothing, and a duration measured at
// host factor 2 is half as long on the nominal host.
func TestReference(t *testing.T) {
	if allocs := testing.AllocsPerRun(5, func() { refReading() }); allocs != 0 {
		t.Errorf("a reading allocates %v times", allocs)
	}
	if got := onNominalHost(10*time.Millisecond, 2); got != 5*time.Millisecond {
		t.Errorf("10ms at factor 2 is %v on the nominal host, want 5ms", got)
	}
	if got := hostFactor(refNominal, 3*refNominal); got != 2 {
		t.Errorf("readings of 1x and 3x nominal give factor %v, want 2", got)
	}
}

// The self-check's quartiles are Python's statistics.quantiles(xs, n=4):
// for 1..10 they are 2.75 and 8.25, round a median of 5.5.
func TestMedianSpread(t *testing.T) {
	median, spread := medianSpread([]float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6})
	if median != 5.5 || spread != (8.25-2.75)/5.5 {
		t.Errorf("median %v spread %v, want 5.5 and 1", median, spread)
	}
}

// A span's self time is its duration minus what its children cover,
// overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "unit", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "step", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Name: "step", StartNS: 30, EndNS: 70},
	}}
	for _, r := range tr.selfTimes() {
		if want := map[string]time.Duration{"unit": 40, "step": 80}[r.name]; r.self != want {
			t.Errorf("%s: self %v, want %v", r.name, r.self, want)
		}
	}
}

// noResult runs the program in-process and wants a non-zero exit and no
// result line.
func noResult(t *testing.T, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code == 0 {
		t.Errorf("%v: exit 0", args)
	}
	if strings.Contains(stdout.String(), `{"correct"`) {
		t.Errorf("%v printed a result line:\n%s", args, stdout.String())
	}
}

func TestFailurePaths(t *testing.T) {
	noResult(t, "--workload", "churn_huge", "--seed", "1", "--seconds", "2", "--trace", "0")
	noResult(t, "--workload", "churn_large", "--trace", "2")
	// The watchdog: 4 x 1 ms is over before the first unit ends, on the
	// simulator and on the wire (whose transports it must close).
	noResult(t, "--workload", "churn_large", "--seconds", "0.001", "-scale", "smoke")
	noResult(t, "--workload", "wire_tcp", "--seconds", "0.001", "-scale", "smoke")
}

// In a directory that holds only BENCHMARK.json and cmd/nowperf/ the
// program cannot be built: the command fails and prints no result.
func TestCommandFailsWithoutTheProgram(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("no bash")
	}
	root := t.TempDir()
	dir := filepath.Join(root, "cmd", "nowperf")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	copyFile := func(from, to string) {
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, data, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	copyFile(filepath.Join("..", "..", "BENCHMARK.json"), filepath.Join(root, "BENCHMARK.json"))
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			copyFile(e.Name(), filepath.Join(dir, e.Name()))
		}
	}
	cmd := exec.Command("bash", filepath.Join("cmd", "nowperf", "run.sh"),
		"--workload", "churn_large", "--seed", "1", "--seconds", "25", "--trace", "0")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Errorf("the command succeeded without the program:\n%s", out)
	}
	if bytes.Contains(out, []byte(`{"correct"`)) {
		t.Errorf("the command printed a result line:\n%s", out)
	}
}
