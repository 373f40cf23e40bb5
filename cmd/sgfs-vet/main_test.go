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
	// Partial runs cannot prove staleness, so they keep exiting clean.
	if code, _, stderr := runVet(t, "-C", root, "-run", "swallowed-error"); code != 0 {
		t.Errorf("partial run exit = %d, want 0 (stale check needs a full run); stderr:\n%s", code, stderr)
	}
	// -prune repairs the allowlist and restores a clean exit.
	if code, _, stderr := runVet(t, "-C", root, "-prune"); code != 0 {
		t.Errorf("prune exit = %d, want 0; stderr:\n%s", code, stderr)
	}
	if code, _, stderr := runVet(t, "-C", root); code != 0 {
		t.Errorf("post-prune exit = %d, want 0; stderr:\n%s", code, stderr)
	}
}

func TestRunAnalyzerSelection(t *testing.T) {
	root := writeModule(t)
	// -run keeps only the named analyzer.
	code, stdout, _ := runVet(t, "-C", root, "-run", "swallowed-error")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if strings.Contains(stdout, "lock-order") {
		t.Errorf("-run swallowed-error still ran lock-order:\n%s", stdout)
	}
	// The per-analyzer enable flag disables one analyzer.
	code, stdout, _ = runVet(t, "-C", root, "-lock-order=false")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if strings.Contains(stdout, "lock-order") {
		t.Errorf("-lock-order=false still reported lock-order:\n%s", stdout)
	}
	if !strings.Contains(stdout, "is not checked") {
		t.Errorf("-lock-order=false dropped the swallowed-error finding:\n%s", stdout)
	}
	// Disabling both offenders leaves a clean run.
	code, _, _ = runVet(t, "-C", root, "-lock-order=false", "-swallowed-error=false")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 with both analyzers disabled", code)
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

func TestRunAllOverridesSelection(t *testing.T) {
	root := writeModule(t)
	// -all restores the full suite even when flags try to narrow it.
	code, stdout, _ := runVet(t, "-C", root, "-all", "-run", "swallowed-error", "-lock-order=false")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "lock-order cycle") {
		t.Errorf("-all did not restore lock-order:\n%s", stdout)
	}
	if !strings.Contains(stdout, "is not checked") {
		t.Errorf("-all did not restore swallowed-error:\n%s", stdout)
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

func TestRunPruneNeedsFullRun(t *testing.T) {
	root := writeModule(t)
	for _, args := range [][]string{
		{"-C", root, "-prune", "-run", "swallowed-error"},
		{"-C", root, "-prune", "-lock-order=false"},
		{"-C", root, "-prune", "./demo"},
	} {
		code, _, stderr := runVet(t, args...)
		if code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
		if !strings.Contains(stderr, "-prune needs a full run") {
			t.Errorf("%v: stderr = %q, want full-run explanation", args, stderr)
		}
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

func TestRunUsageErrors(t *testing.T) {
	root := writeModule(t)
	if code, _, stderr := runVet(t, "-C", root, "-run", "bogus"); code != 2 {
		t.Errorf("unknown analyzer: exit = %d, want 2 (%s)", code, stderr)
	}
	// A directory with no go.mod anywhere above it is a load error.
	if code, _, _ := runVet(t, "-C", t.TempDir()); code != 2 {
		t.Errorf("-C outside a module: exit = %d, want 2", code)
	}
	if code, _, _ := runVet(t, "-not-a-flag"); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	// Enable flags come from the analyzer list: a retired analyzer's
	// flag is gone with it.
	if code, _, _ := runVet(t, "-xdr-symmetry=false"); code != 2 {
		t.Errorf("retired analyzer flag: exit = %d, want 2", code)
	}
	if code, _, _ := runVet(t, "-C", root, "-run", "xdr-symmetry"); code != 2 {
		t.Errorf("-run of a retired analyzer: exit = %d, want 2", code)
	}
}

// hotSource declares one hot-path root whose loop leaks a buffer into
// a package variable: material for the census and budget modes.
const hotSource = `package hot

var sink [][]byte

// Pump is the demo hot path.
//
//sgfsvet:hot-path
func Pump(n int) {
	for i := 0; i < n; i++ {
		buf := make([]byte, 64)
		sink = append(sink, buf)
	}
}
`

// writeHotModule lays out a module with a hot-path root and returns
// its root and the hot package's source path.
func writeHotModule(t *testing.T) (root, src string) {
	t.Helper()
	root = t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module hotmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "hot")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src = filepath.Join(dir, "hot.go")
	if err := os.WriteFile(src, []byte(hotSource), 0o644); err != nil {
		t.Fatal(err)
	}
	return root, src
}

func TestRunAllocCensus(t *testing.T) {
	root, _ := writeHotModule(t)
	code, stdout, stderr := runVet(t, "-C", root, "-alloc-census")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, stderr)
	}
	var rep struct {
		Schema int `json:"schema"`
		Roots  []struct {
			Root      string `json:"root"`
			HeapSites int    `json:"heap_sites"`
		} `json:"roots"`
		Sites []struct {
			File string `json:"file"`
			Kind string `json:"kind"`
		} `json:"sites"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("census is not JSON: %v\n%s", err, stdout)
	}
	if len(rep.Roots) != 1 || rep.Roots[0].Root != "hot.Pump" {
		t.Fatalf("roots = %+v", rep.Roots)
	}
	if rep.Roots[0].HeapSites == 0 || len(rep.Sites) == 0 {
		t.Fatalf("census found no heap sites:\n%s", stdout)
	}
	for _, s := range rep.Sites {
		if filepath.IsAbs(s.File) {
			t.Errorf("site path %q not relativized", s.File)
		}
	}
}

func TestRunAllocCensusNoRoots(t *testing.T) {
	root := writeModule(t) // demo module: no hot-path directives
	code, _, stderr := runVet(t, "-C", root, "-alloc-census")
	if code != 2 || !strings.Contains(stderr, "hot-path") {
		t.Fatalf("exit = %d, stderr = %q; want 2 with a no-roots message", code, stderr)
	}
}

func TestRunAllocBudget(t *testing.T) {
	root, src := writeHotModule(t)

	// No baseline yet: the gate cannot run.
	if code, _, stderr := runVet(t, "-C", root, "-alloc-budget"); code != 2 {
		t.Fatalf("missing baseline: exit = %d, want 2 (%s)", code, stderr)
	}

	// Freeze the current census as the baseline: within budget. The
	// file holds what the gate compares, not the per-site records.
	baseline := filepath.Join(root, ".sgfsvet-allocs.json")
	if code, _, stderr := runVet(t, "-C", root, "-alloc-census", "-alloc-baseline", baseline); code != 0 {
		t.Fatalf("writing the baseline: exit = %d (%s)", code, stderr)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"buckets"`) || strings.Contains(string(data), `"sites": [`) {
		t.Fatalf("baseline should store root totals and bucket counts only:\n%s", data)
	}
	if code, _, stderr := runVet(t, "-C", root, "-alloc-budget"); code != 0 {
		t.Fatalf("fresh baseline: exit = %d, want 0 (%s)", code, stderr)
	}

	// Grow the hot path by one leaked allocation: the gate trips.
	grown := hotSource + `
// Drain leaks one more buffer per call.
func Drain() {
	sink = append(sink, make([]byte, 8))
}
`
	if err := os.WriteFile(src, []byte(strings.Replace(grown, "sink = append(sink, buf)", "sink = append(sink, buf)\n\t\tDrain()", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runVet(t, "-C", root, "-alloc-budget")
	if code != 1 {
		t.Fatalf("grown hot path: exit = %d, want 1; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "not in baseline") && !strings.Contains(stdout, "grew") {
		t.Errorf("stdout lacks a budget violation:\n%s", stdout)
	}
	if !strings.Contains(stderr, "-alloc-census") {
		t.Errorf("stderr should point at the refresh workflow: %q", stderr)
	}

	// Both flags share one census: the report on stdout, the verdict
	// on stderr and in the exit status, the baseline left alone.
	code, stdout, stderr = runVet(t, "-C", root, "-alloc-census", "-alloc-budget")
	if code != 1 || !json.Valid([]byte(stdout)) || !strings.Contains(stderr, "alloc budget:") {
		t.Errorf("census+budget: exit = %d, want 1 with JSON on stdout; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if after, err := os.ReadFile(baseline); err != nil || string(after) != string(data) {
		t.Errorf("census+budget rewrote the baseline (err %v)", err)
	}

	// An explicit baseline path overrides the default location.
	if code, _, _ := runVet(t, "-C", root, "-alloc-budget", "-alloc-baseline", baseline); code != 1 {
		t.Errorf("explicit -alloc-baseline: exit = %d, want 1", code)
	}
}
