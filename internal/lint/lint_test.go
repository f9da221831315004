package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture harness: each testdata/src package carries `// want <rule>`
// markers on the lines the suite must flag; a fixture run compares the
// marker set against the diagnostics, so both false positives and false
// negatives fail the test.

var (
	loadOnce sync.Once
	modLd    *Loader
	loadErr  error
)

// loadModule type-checks the module packages the fixtures import
// (metrics, xrand) once per test binary.
func loadModule(t *testing.T) *Loader {
	t.Helper()
	loadOnce.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			loadErr = err
			return
		}
		_, modLd, loadErr = Load(root, "./internal/metrics", "./internal/xrand")
	})
	if loadErr != nil {
		t.Fatalf("loading module packages: %v", loadErr)
	}
	return modLd
}

// runFixture loads testdata/src/<fixture> under the given import path and
// runs the full analyzer suite on it.
func runFixture(t *testing.T, fixture, importPath string) []Diagnostic {
	t.Helper()
	ld := loadModule(t)
	pkg, err := ld.LoadDir(filepath.Join("testdata", "src", fixture), importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	return Run([]*Package{pkg}, Analyzers())
}

var wantRe = regexp.MustCompile(`// want ([a-z][a-z-]*(?: [a-z][a-z-]*)*)\s*$`)

// expectedFindings scans a fixture directory for `// want <rule>` markers
// and returns them as sorted "file:line rule" strings.
func expectedFindings(t *testing.T, fixture string) []string {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var want []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading fixture file: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, rule := range strings.Fields(m[1]) {
				want = append(want, fmt.Sprintf("%s:%d %s", e.Name(), i+1, rule))
			}
		}
	}
	sort.Strings(want)
	return want
}

func actualFindings(diags []Diagnostic) []string {
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule))
	}
	sort.Strings(got)
	return got
}

// checkFixture asserts the diagnostic set matches the fixture's markers
// exactly.
func checkFixture(t *testing.T, fixture, importPath string) {
	t.Helper()
	diags := runFixture(t, fixture, importPath)
	want := expectedFindings(t, fixture)
	got := actualFindings(diags)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fixture %s: diagnostics mismatch\n got: %v\nwant: %v", fixture, got, want)
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

func TestMapOrderFixture(t *testing.T)        { checkFixture(t, "maporder", "fixture/maporder") }
func TestFloatFoldFixture(t *testing.T)       { checkFixture(t, "floatfold", "fixture/floatfold") }
func TestRNGFixture(t *testing.T)             { checkFixture(t, "rngbad", "fixture/rngbad") }
func TestClassExhaustiveFixture(t *testing.T) { checkFixture(t, "classexh", "fixture/classexh") }

// TestRNGAllowlistedPath proves the allowlist: the same violating file,
// loaded as a cmd/ package, produces zero findings because commands may
// read the wall clock and host entropy.
func TestRNGAllowlistedPath(t *testing.T) {
	diags := runFixture(t, "rngbad", "nowover/cmd/rngbad")
	if len(diags) != 0 {
		t.Errorf("cmd/ path should be exempt from rng-discipline, got %d diagnostics:", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// TestFileScopedSuppression: one //nowlint:file: directive silences the
// rule for every site in the file.
func TestFileScopedSuppression(t *testing.T) {
	diags := runFixture(t, "filescoped", "fixture/filescoped")
	if len(diags) != 0 {
		t.Errorf("file-scoped suppression should silence all findings, got %d:", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// lineMatching returns the 1-based line whose trimmed text satisfies
// match, failing the test if it is not unique.
func lineMatching(t *testing.T, path string, match func(string) bool) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	found := 0
	for i, line := range strings.Split(string(data), "\n") {
		if match(strings.TrimSpace(line)) {
			found = i + 1
		}
	}
	if found == 0 {
		t.Fatalf("no line in %s matches", path)
	}
	return found
}

// TestSuppressionDiscipline covers the suppression forms inline markers
// cannot express (trailing text on a //nowlint comment is its reason):
// justified suppressions silence the finding, a reason-less one is
// rejected and reported, an unknown key is reported.
func TestSuppressionDiscipline(t *testing.T) {
	diags := runFixture(t, "suppressed", "fixture/suppressed")
	src := filepath.Join("testdata", "src", "suppressed", "suppressed.go")

	bareLine := lineMatching(t, src, func(s string) bool { return s == "//nowlint:ordered" })
	bogusLine := lineMatching(t, src, func(s string) bool { return strings.HasPrefix(s, "//nowlint:bogus") })

	want := []string{
		// The reason-less suppression does not suppress, so the range it
		// covers still fires, plus the suppression diagnostic itself.
		fmt.Sprintf("suppressed.go:%d map-order", bareLine+1),
		fmt.Sprintf("suppressed.go:%d suppression", bareLine),
		fmt.Sprintf("suppressed.go:%d suppression", bogusLine),
	}
	sort.Strings(want)
	got := actualFindings(diags)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("suppressed fixture: diagnostics mismatch\n got: %v\nwant: %v", got, want)
	}
	for _, d := range diags {
		if d.Pos.Line == bareLine && !strings.Contains(d.Msg, "no justification") {
			t.Errorf("reason-less suppression message should say so, got %q", d.Msg)
		}
		if d.Pos.Line == bogusLine && !strings.Contains(d.Msg, "unknown rule key") {
			t.Errorf("unknown-key suppression message should say so, got %q", d.Msg)
		}
	}
}

// TestWallClockFixture pins the contract for intentionally wall-clock
// code inside internal/ (the TCP transport's shape): a justified
// //nowlint:rng silences exactly its site, while a bare one suppresses
// nothing — the call it sits on still fires, and the suppression itself
// is a finding. This is what makes a reason-less suppression in new
// wall-clock code fail the lint job rather than slip through.
func TestWallClockFixture(t *testing.T) {
	diags := runFixture(t, "wallclock", "fixture/wallclock")
	src := filepath.Join("testdata", "src", "wallclock", "wallclock.go")
	bare := lineMatching(t, src, func(s string) bool { return s == "//nowlint:rng" })
	want := append(expectedFindings(t, "wallclock"), fmt.Sprintf("wallclock.go:%d suppression", bare))
	sort.Strings(want)
	got := actualFindings(diags)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wallclock fixture: diagnostics mismatch\n got: %v\nwant: %v", got, want)
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// TestSelfCheck is the dogfood gate: the repo's own tree must be clean
// under the full suite. Any new nondeterminism hazard (or stale
// suppression) fails this test before it ever reaches CI's lint job.
func TestSelfCheck(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, _, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("repo is not nowlint-clean: %s", d)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:  token.Position{Filename: "world.go", Line: 640},
		Rule: "map-order",
		Msg:  "range over map leaks iteration order",
	}
	want := "world.go:640: [map-order] range over map leaks iteration order"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestAnalyzerByKey(t *testing.T) {
	all := Analyzers()
	for _, a := range all {
		if got := AnalyzerByKey(a.Key, all); got != a {
			t.Errorf("AnalyzerByKey(%q) = %v, want %v", a.Key, got, a)
		}
		if got := AnalyzerByKey(a.Name, all); got != a {
			t.Errorf("AnalyzerByKey(%q) = %v, want %v", a.Name, got, a)
		}
	}
	if got := AnalyzerByKey("bogus", all); got != nil {
		t.Errorf("AnalyzerByKey(bogus) = %v, want nil", got)
	}
}

func TestLoadDirErrors(t *testing.T) {
	ld := loadModule(t)
	if _, err := ld.LoadDir(filepath.Join("testdata", "no-such-dir"), "x"); err == nil {
		t.Error("LoadDir on a missing directory should fail")
	}
	empty := t.TempDir()
	if _, err := ld.LoadDir(empty, "x"); err == nil {
		t.Error("LoadDir on a directory with no Go files should fail")
	}
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "bad.go"), []byte("package bad\nfunc {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.LoadDir(bad, "x"); err == nil {
		t.Error("LoadDir on an unparseable file should fail")
	}
	broken := t.TempDir()
	if err := os.WriteFile(filepath.Join(broken, "broken.go"), []byte("package broken\nvar x NoSuchType\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.LoadDir(broken, "x"); err == nil {
		t.Error("LoadDir on a type-broken file should fail")
	}
}

func TestLoadBadPattern(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(root, "./no/such/package"); err == nil {
		t.Error("Load with a bad pattern should fail")
	}
}
