package main

import (
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expectation comments in fixture files:
//
//	fmt.Fprintf(w, ...) // want "map iteration order"
var wantRe = regexp.MustCompile(`want "([^"]*)"`)

// expectations maps "file:line" to the diagnostic substrings the
// fixture declares on that line.
type expectations map[string][]string

func loadExpectations(t *testing.T, dir string) expectations {
	t.Helper()
	want := make(expectations)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixtures in %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
					want[key] = append(want[key], m[1])
				}
			}
		}
	}
	return want
}

// only returns an enable-map with exactly the named analyzers on,
// mirroring what -<name>=false flags produce in main.
func only(names ...string) map[string]bool {
	on := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		on[a.name] = false
	}
	for _, name := range names {
		on[name] = true
	}
	return on
}

func runOnFixture(t *testing.T, dir, pkgPath string, on map[string]bool) ([]diagnostic, int) {
	t.Helper()
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	diags, suppressed, err := analyzePackage(fset, imp, dir, pkgPath, on)
	if err != nil {
		t.Fatalf("analyzePackage(%s): %v", dir, err)
	}
	return diags, suppressed
}

func checkAgainstExpectations(t *testing.T, dir string, diags []diagnostic) {
	t.Helper()
	want := loadExpectations(t, dir)
	got := make(map[string][]string)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.pos.Filename), d.pos.Line)
		got[key] = append(got[key], d.msg)
	}
	for key, subs := range want {
		msgs := got[key]
		for _, sub := range subs {
			found := false
			for _, msg := range msgs {
				if strings.Contains(msg, sub) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: want diagnostic containing %q, got %v", key, sub, msgs)
			}
		}
		if len(msgs) > len(subs) {
			t.Errorf("%s: %d diagnostics but only %d want annotations: %v", key, len(msgs), len(subs), msgs)
		}
	}
	for key, msgs := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: unexpected diagnostics %v", key, msgs)
		}
	}
}

func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		name           string
		pkgPath        string // "" means derive from the directory
		wantSuppressed int
	}{
		{name: "atomicwrite", wantSuppressed: 1},
		{name: "metricname"},
		{name: "maporder"},
		{name: "errclose"},
		// The rawgo fixture is fed to the analyzer under an engine
		// package path, since rawgo only fires in those packages.
		{name: "rawgo", pkgPath: "internal/core", wantSuppressed: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.name)
			pkgPath := tc.pkgPath
			if pkgPath == "" {
				pkgPath = pkgPathFor(dir)
			}
			diags, suppressed := runOnFixture(t, dir, pkgPath, only(tc.name))
			checkAgainstExpectations(t, dir, diags)
			if suppressed != tc.wantSuppressed {
				t.Errorf("suppressed = %d, want %d", suppressed, tc.wantSuppressed)
			}
		})
	}
}

// TestRawgoExemptPackage feeds the same goroutine-heavy fixture to the
// analyzer under a package path outside the engine set: no diagnostics.
func TestRawgoExemptPackage(t *testing.T) {
	diags, _ := runOnFixture(t, filepath.Join("testdata", "rawgo"), "internal/cluster", only("rawgo"))
	if len(diags) != 0 {
		t.Errorf("rawgo fired outside the engine package set: %v", diags)
	}
}

// TestRawgoTaskWaveHome feeds the fixture to the analyzer as
// internal/shuffle, the one engine package that builds task waves: its
// go statements are still findings, its cluster.Task literals are not.
func TestRawgoTaskWaveHome(t *testing.T) {
	diags, _ := runOnFixture(t, filepath.Join("testdata", "rawgo"), "internal/shuffle", only("rawgo"))
	if len(diags) != 1 || !strings.Contains(diags[0].msg, "bare go statement") {
		t.Errorf("rawgo under internal/shuffle = %v, want only the bare go statement", diags)
	}
}

// TestDisabledAnalyzer checks the enable-map that the per-analyzer
// flags feed: with everything off, even a violation-dense fixture
// yields no diagnostics.
func TestDisabledAnalyzer(t *testing.T) {
	diags, suppressed := runOnFixture(t, filepath.Join("testdata", "errclose"), "x", only())
	if len(diags) != 0 || suppressed != 0 {
		t.Errorf("disabled run produced diags=%v suppressed=%d", diags, suppressed)
	}
}

func TestDirectiveParsing(t *testing.T) {
	dir := filepath.Join("testdata", "directives")
	diags, suppressed := runOnFixture(t, dir, "x", only("atomicwrite"))
	if suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the justified directive)", suppressed)
	}
	var directiveMsgs, atomicMsgs []string
	for _, d := range diags {
		switch d.analyzer {
		case directiveAnalyzer:
			directiveMsgs = append(directiveMsgs, d.msg)
		case "atomicwrite":
			atomicMsgs = append(atomicMsgs, d.msg)
		}
	}
	if len(directiveMsgs) != 2 {
		t.Fatalf("directive diagnostics = %v, want 2", directiveMsgs)
	}
	joined := strings.Join(directiveMsgs, "\n")
	if !strings.Contains(joined, "no justification") {
		t.Errorf("missing-justification directive not reported: %v", directiveMsgs)
	}
	if !strings.Contains(joined, "unknown analyzer") {
		t.Errorf("unknown-analyzer directive not reported: %v", directiveMsgs)
	}
	// Malformed directives suppress nothing: both their os.Rename
	// calls are still flagged.
	if len(atomicMsgs) != 2 {
		t.Errorf("atomicwrite diagnostics = %v, want 2 (malformed directives must not suppress)", atomicMsgs)
	}
}

func TestExpandPatterns(t *testing.T) {
	dirs, err := expandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != "." {
		t.Errorf(`expandPatterns("./...") from the vet package = %v, want ["."]; testdata must be skipped`, dirs)
	}

	dirs, err = expandPatterns([]string{
		filepath.Join("testdata", "errclose"),
		filepath.Join("testdata", "maporder"),
		filepath.Join("testdata", "errclose"), // duplicates collapse
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 {
		t.Errorf("explicit dirs = %v, want 2 unique entries", dirs)
	}

	root := repoRoot(t)
	dirs, err = expandPatterns([]string{filepath.Join(root, "internal", "tools") + string(filepath.Separator) + "..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 {
		t.Errorf("internal/tools/... = %v, want the two tool packages", dirs)
	}
}

// TestMultiPackageRun analyzes two fixture packages in one call and
// checks diagnostics from both come back position-sorted.
func TestMultiPackageRun(t *testing.T) {
	dirs := []string{
		filepath.Join("testdata", "atomicwrite"),
		filepath.Join("testdata", "errclose"),
	}
	diags, _, err := analyzeDirs(dirs, only("atomicwrite", "errclose"))
	if err != nil {
		t.Fatal(err)
	}
	pkgsSeen := make(map[string]bool)
	for _, d := range diags {
		pkgsSeen[filepath.Base(filepath.Dir(d.pos.Filename))] = true
	}
	if !pkgsSeen["atomicwrite"] || !pkgsSeen["errclose"] {
		t.Errorf("multi-package run covered %v, want both fixture packages", pkgsSeen)
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.pos.Filename > b.pos.Filename || (a.pos.Filename == b.pos.Filename && a.pos.Line > b.pos.Line) {
			t.Errorf("diagnostics not position-sorted: %v before %v", a.pos, b.pos)
		}
	}
}

// TestRepoClean is the self-check mirrored by CI: the repo's own
// packages must pass every analyzer with zero diagnostics.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo; skipped in -short")
	}
	root := repoRoot(t)
	dirs, err := expandPatterns([]string{root + string(filepath.Separator) + "..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("expandPatterns found only %d package dirs under the repo root; pattern walk is broken", len(dirs))
	}
	on := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		on[a.name] = true
	}
	diags, _, err := analyzeDirs(dirs, on)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s:%d: [%s] %s", d.pos.Filename, d.pos.Line, d.analyzer, d.msg)
	}
}

// TestCommandLine exercises the real binary: flag handling, the -list
// flag, exit codes, and the summary line.
func TestCommandLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the tool; skipped in -short")
	}
	run := func(args ...string) (string, string, int) {
		t.Helper()
		cmd := exec.Command("go", append([]string{"run", "."}, args...)...)
		var out, errOut strings.Builder
		cmd.Stdout = &out
		cmd.Stderr = &errOut
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("go run .: %v", err)
		}
		return out.String(), errOut.String(), code
	}

	stdout, _, code := run("-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, a := range analyzers {
		if !strings.Contains(stdout, a.name) {
			t.Errorf("-list output missing analyzer %s:\n%s", a.name, stdout)
		}
	}

	stdout, stderr, code := run(filepath.Join("testdata", "errclose"))
	if code != 1 {
		t.Errorf("violating fixture exited %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "[errclose]") {
		t.Errorf("diagnostics missing [errclose] tag:\n%s", stdout)
	}
	if !strings.Contains(stderr, "errclose=3") {
		t.Errorf("summary line missing errclose=3:\n%s", stderr)
	}

	_, stderr, code = run("-errclose=false", filepath.Join("testdata", "errclose"))
	if code != 0 {
		t.Errorf("-errclose=false still exited %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "errclose=off") {
		t.Errorf("summary line missing errclose=off:\n%s", stderr)
	}
}

func TestSummaryLine(t *testing.T) {
	on := only("atomicwrite", "errclose", "maporder", "metricname", "rawgo")
	line := summary(nil, 3, on)
	for _, wantSub := range []string{"i2vet:", "atomicwrite=0", "suppressed=3", "(clean)"} {
		if !strings.Contains(line, wantSub) {
			t.Errorf("summary %q missing %q", line, wantSub)
		}
	}
	line = summary([]diagnostic{{analyzer: "rawgo"}}, 0, only("rawgo"))
	if !strings.Contains(line, "rawgo=1") || !strings.Contains(line, "(1 diagnostics)") {
		t.Errorf("summary %q missing rawgo=1 count", line)
	}
	if !strings.Contains(line, "atomicwrite=off") {
		t.Errorf("summary %q should mark disabled analyzers off", line)
	}
}

// repoRoot walks up from the test's working directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}
