package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// demoSource seeds one lock-order cycle (a.mu <-> b.mu, one leg
// through a call) and one swallowed error, so exit codes, filtering
// and suppression all have material to work with.
const demoSource = `package demo

import "sync"

type a struct {
	mu sync.Mutex
	b  *b
}

type b struct {
	mu sync.Mutex
	a  *a
}

func (x *a) one() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.b.mu.Lock()
	x.b.mu.Unlock()
}

func (y *b) two() {
	y.mu.Lock()
	defer y.mu.Unlock()
	y.a.oops()
}

func (x *a) oops() {
	x.mu.Lock()
	x.mu.Unlock()
}

func mayFail() error { return nil }

func Use() {
	mayFail()
}
`

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module fixturemod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "demo")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "demo.go"), []byte(demoSource), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunFindings(t *testing.T) {
	root := writeModule(t)
	code, stdout, stderr := runVet(t, "-C", root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "lock-order cycle") {
		t.Errorf("stdout missing lock-order finding:\n%s", stdout)
	}
	if !strings.Contains(stdout, "is not checked") {
		t.Errorf("stdout missing swallowed-error finding:\n%s", stdout)
	}
	if !strings.Contains(stderr, "2 finding(s)") {
		t.Errorf("stderr = %q, want finding count", stderr)
	}
}

func TestRunJSON(t *testing.T) {
	root := writeModule(t)
	// A stale allowlist entry must be reported in the JSON too.
	ignore := filepath.Join(root, ".sgfsvet-ignore")
	if err := os.WriteFile(ignore, []byte("lock-over-io never/matches nothing here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runVet(t, "-C", root, "-json")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 with a stale allowlist entry; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "allowlist is stale") {
		t.Errorf("stderr = %q, want distinct stale-allowlist error", stderr)
	}
	var report struct {
		ModuleRoot   string                                     `json:"module_root"`
		Findings     []struct{ Analyzer, File, Message string } `json:"findings"`
		Suppressed   []struct{ Analyzer string }                `json:"suppressed"`
		StaleIgnores []int                                      `json:"stale_ignore_lines"`
	}
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if len(report.Findings) != 2 {
		t.Fatalf("findings = %d, want 2: %+v", len(report.Findings), report.Findings)
	}
	seen := map[string]bool{}
	for _, f := range report.Findings {
		seen[f.Analyzer] = true
		if f.File != "demo/demo.go" {
			t.Errorf("finding file = %q, want module-relative demo/demo.go", f.File)
		}
	}
	if !seen["lock-order"] || !seen["swallowed-error"] {
		t.Errorf("finding analyzers = %v, want lock-order and swallowed-error", seen)
	}
	if len(report.StaleIgnores) != 1 {
		t.Errorf("stale_ignore_lines = %v, want one entry", report.StaleIgnores)
	}
}

func TestRunStaleIgnoreFails(t *testing.T) {
	root := writeModule(t)
	ignore := filepath.Join(root, ".sgfsvet-ignore")
	// Cover both real findings so the only problem is the stale line.
	content := "lock-order demo/demo.go lock-order cycle\n" +
		"swallowed-error demo/demo.go result of mayFail\n" +
		"lock-over-io never/matches nothing here\n"
	if err := os.WriteFile(ignore, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runVet(t, "-C", root)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 on a stale allowlist; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "allowlist entry matched nothing") {
		t.Errorf("stderr missing per-line stale report: %s", stderr)
	}
	if !strings.Contains(stderr, "allowlist is stale") || !strings.Contains(stderr, "-prune") {
		t.Errorf("stderr = %q, want distinct stale-allowlist error mentioning -prune", stderr)
	}
	// -prune repairs the allowlist and restores a clean exit.
	if code, _, stderr := runVet(t, "-C", root, "-prune"); code != 0 {
		t.Errorf("prune exit = %d, want 0; stderr:\n%s", code, stderr)
	}
	if code, _, stderr := runVet(t, "-C", root); code != 0 {
		t.Errorf("post-prune exit = %d, want 0; stderr:\n%s", code, stderr)
	}
}

func TestRunIgnoreFile(t *testing.T) {
	root := writeModule(t)
	ignore := filepath.Join(root, ".sgfsvet-ignore")
	content := "lock-order demo/demo.go lock-order cycle\n" +
		"swallowed-error demo/demo.go result of mayFail\n"
	if err := os.WriteFile(ignore, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runVet(t, "-C", root)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 with full allowlist; stdout:\n%s", code, stdout)
	}
	if strings.Contains(stderr, "matched nothing") {
		t.Errorf("no entry is stale, but stderr says otherwise: %s", stderr)
	}
	// Suppressed findings stay visible in the JSON report.
	code, out, _ := runVet(t, "-C", root, "-json")
	if code != 0 {
		t.Fatalf("-json exit = %d, want 0", code)
	}
	var report struct {
		Suppressed []struct{ Analyzer string } `json:"suppressed"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Suppressed) != 2 {
		t.Errorf("suppressed = %d, want 2", len(report.Suppressed))
	}
}

func TestRunPrune(t *testing.T) {
	root := writeModule(t)
	ignore := filepath.Join(root, ".sgfsvet-ignore")
	content := "# findings accepted for the demo module\n" +
		"lock-order demo/demo.go lock-order cycle\n" +
		"lock-over-io never/matches nothing here\n" +
		"swallowed-error demo/demo.go result of mayFail\n"
	if err := os.WriteFile(ignore, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runVet(t, "-C", root, "-prune")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "pruned 1 stale allowlist line(s)") {
		t.Errorf("stderr missing prune report: %s", stderr)
	}
	if strings.Contains(stderr, "matched nothing") {
		t.Errorf("pruned entries still reported stale: %s", stderr)
	}
	after, err := os.ReadFile(ignore)
	if err != nil {
		t.Fatal(err)
	}
	want := "# findings accepted for the demo module\n" +
		"lock-order demo/demo.go lock-order cycle\n" +
		"swallowed-error demo/demo.go result of mayFail\n"
	if string(after) != want {
		t.Errorf("pruned allowlist = %q, want %q", after, want)
	}
	// A second prune has nothing to remove and leaves the file alone.
	code, _, stderr = runVet(t, "-C", root, "-prune")
	if code != 0 {
		t.Fatalf("second prune exit = %d; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "pruned") {
		t.Errorf("second prune removed lines: %s", stderr)
	}
}

func TestRunTiming(t *testing.T) {
	root := writeModule(t)
	code, stdout, stderr := runVet(t, "-C", root, "-json", "-timing")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "analyzer wall time") || !strings.Contains(stderr, "lock-order") {
		t.Errorf("stderr missing timing table:\n%s", stderr)
	}
	var report struct {
		Timings     []struct{ Analyzer string } `json:"timings"`
		TotalMillis *int64                      `json:"total_millis"`
	}
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	// The shared Module build is its own first row, so it is not
	// charged to whichever analyzer happens to run first.
	if len(report.Timings) == 0 || report.Timings[0].Analyzer != "module" {
		t.Errorf("json timings = %+v, want the module row first", report.Timings)
	}
	if !strings.Contains(stderr, "  module ") {
		t.Errorf("stderr timing table has no module row:\n%s", stderr)
	}
	if report.TotalMillis == nil {
		t.Error("json report has no total_millis")
	}
}

func TestRunAnnotate(t *testing.T) {
	root := writeModule(t)
	reportPath := filepath.Join(root, "report.json")
	report := `{
		"module_root": "` + strings.ReplaceAll(root, `\`, `\\`) + `",
		"findings": [
			{"analyzer": "lock-order", "file": "demo/demo.go", "line": 30, "column": 2,
			 "message": "lock-order cycle: 50% of, \nsecond line"}
		],
		"stale_ignore_lines": [7],
		"total_millis": 200000
	}`
	if err := os.WriteFile(reportPath, []byte(report), 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, _ := runVet(t, "-annotate", reportPath)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 with findings", code)
	}
	if !strings.Contains(stdout, "::error file=demo/demo.go,line=30,col=2,title=sgfs-vet lock-order::") {
		t.Errorf("missing error annotation:\n%s", stdout)
	}
	if !strings.Contains(stdout, "50%25 of") || !strings.Contains(stdout, "%0Asecond line") {
		t.Errorf("message not escaped per workflow-command rules:\n%s", stdout)
	}
	if !strings.Contains(stdout, "::warning file=.sgfsvet-ignore,line=7::") {
		t.Errorf("missing stale-allowlist warning:\n%s", stdout)
	}

	// Budget enforcement: the 200s report busts a 120s budget even when
	// the findings list is empty.
	clean := `{"module_root": "x", "findings": [], "total_millis": 200000}`
	if err := os.WriteFile(reportPath, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ = runVet(t, "-annotate", reportPath, "-budget", "120s")
	if code != 1 {
		t.Fatalf("budget exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "over the 2m0s budget") {
		t.Errorf("missing budget annotation:\n%s", stdout)
	}
	code, _, _ = runVet(t, "-annotate", reportPath, "-budget", "300s")
	if code != 0 {
		t.Fatalf("under-budget exit = %d, want 0", code)
	}
	code, _, _ = runVet(t, "-annotate", reportPath)
	if code != 0 {
		t.Fatalf("clean report without budget: exit = %d, want 0", code)
	}

	if code, _, _ := runVet(t, "-annotate", filepath.Join(root, "absent.json")); code != 2 {
		t.Errorf("missing report: exit = %d, want 2", code)
	}
	if err := os.WriteFile(reportPath, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runVet(t, "-annotate", reportPath); code != 2 {
		t.Errorf("malformed report: exit = %d, want 2", code)
	}
}

func TestRunAnnotateRoundTrip(t *testing.T) {
	root := writeModule(t)
	code, stdout, _ := runVet(t, "-C", root, "-json")
	if code != 1 {
		t.Fatalf("json run exit = %d, want 1", code)
	}
	reportPath := filepath.Join(root, "report.json")
	if err := os.WriteFile(reportPath, []byte(stdout), 0o644); err != nil {
		t.Fatal(err)
	}
	code, annotations, _ := runVet(t, "-annotate", reportPath, "-budget", "120s")
	if code != 1 {
		t.Fatalf("annotate exit = %d, want 1", code)
	}
	if strings.Count(annotations, "::error") != 2 {
		t.Errorf("want one annotation per finding:\n%s", annotations)
	}
	if strings.Contains(annotations, "budget") {
		t.Errorf("real run should be far under budget:\n%s", annotations)
	}
}

// TestRunNarrowPattern: a pattern chooses which findings a run
// prints, not what it analyses, so the allowlist is still matched
// against the whole module — an entry for a finding outside the
// pattern is in use, and an entry that matches nothing anywhere is
// stale.
func TestRunNarrowPattern(t *testing.T) {
	root := writeModule(t)
	other := filepath.Join(root, "other")
	if err := os.Mkdir(other, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package other\n\nfunc fail() error { return nil }\n\nfunc Use() {\n\tfail()\n}\n"
	if err := os.WriteFile(filepath.Join(other, "other.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ignore := filepath.Join(root, ".sgfsvet-ignore")
	content := "lock-order demo/demo.go lock-order cycle\n" +
		"lock-over-io never/matches nothing here\n"
	if err := os.WriteFile(ignore, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runVet(t, "-C", root, "./other")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 on a stale allowlist; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "result of fail") || strings.Contains(stdout, "demo.go") {
		t.Errorf("./other run printed\n%s\nwant only other's finding", stdout)
	}
	if !strings.Contains(stderr, ".sgfsvet-ignore:2: allowlist entry matched nothing") ||
		strings.Contains(stderr, ".sgfsvet-ignore:1:") {
		t.Errorf("stderr = %q, want line 2 stale and line 1 in use", stderr)
	}
}

func TestRunUsageErrors(t *testing.T) {
	root := writeModule(t)
	if code, _, stderr := runVet(t, "-C", root, "./absent"); code != 2 {
		t.Errorf("pattern naming no package: exit = %d, want 2 (%s)", code, stderr)
	}
	// A directory with no go.mod anywhere above it is a load error.
	if code, _, _ := runVet(t, "-C", t.TempDir()); code != 2 {
		t.Errorf("-C outside a module: exit = %d, want 2", code)
	}
	if code, _, _ := runVet(t, "-not-a-flag"); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	// Every run applies the whole suite: there is no flag that selects
	// analyzers, and the alloc census went with alloc-hotpath.
	for _, flag := range []string{"-all", "-run=lock-order", "-lock-order=false", "-xdr-symmetry=false",
		"-alloc-hotpath=false", "-alloc-census", "-alloc-budget", "-alloc-baseline=x"} {
		if code, _, _ := runVet(t, "-C", root, flag); code != 2 {
			t.Errorf("removed flag %s: exit = %d, want 2", flag, code)
		}
	}
}
