// Command sgfs-vet runs the repository's custom static analyzers over
// the module. It is built purely on the standard library's go/ast,
// go/parser and go/types — no external tooling — and is wired into
// `make check` and CI as a merge gate.
//
// Usage:
//
//	sgfs-vet [-C dir] [-ignore file] [-run a,b] [-all] [-json] [-timing] [-prune] [-<analyzer>=false ...] [pattern ...]
//	sgfs-vet -annotate report.json [-budget 120s]
//
// Patterns are package directories relative to the module root;
// `./...` (the default) walks the whole module. Every analyzer has an
// enable flag named after it (e.g. -lock-order=false); -run keeps
// only the named analyzers; -all forces the complete suite regardless
// of -run or per-analyzer flags. -json emits a machine-readable
// report on stdout (findings, suppressed findings, stale allowlist
// lines, timings) for CI artifacts. -timing prints the wall-time
// breakdown on stderr: a `module` row for the shared index, call graph
// and CFGs, then one row per analyzer. -prune rewrites the allowlist
// dropping the stale lines a full run detects.
//
// The -annotate form turns a previously captured -json report into
// GitHub Actions workflow-command annotations (::error for findings,
// ::warning for stale allowlist lines) so findings surface inline on
// pull requests; with -budget it also fails when the report's total
// analysis time exceeds the budget, keeping the suite fast enough to
// stay a merge gate.
//
// Exit status is 0 when clean, 1 when there are findings not covered
// by the allowlist (or, with -annotate, when the report has findings
// or busts the budget), and 2 on usage or load errors — including a
// rotten allowlist: a full run whose .sgfsvet-ignore still carries
// entries that matched nothing exits 2 until the stale lines are
// deleted or -prune removes them. See DESIGN.md, "Static analysis:
// sgfs-vet".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is one finding in the -json report. File paths are
// relative to the module root so reports are stable across checkouts.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// jsonTiming is one analyzer's wall time in the -json report.
type jsonTiming struct {
	Analyzer string `json:"analyzer"`
	Millis   int64  `json:"millis"`
}

type jsonReport struct {
	ModuleRoot   string           `json:"module_root"`
	Findings     []jsonDiagnostic `json:"findings"`
	Suppressed   []jsonDiagnostic `json:"suppressed"`
	StaleIgnores []int            `json:"stale_ignore_lines,omitempty"`
	Timings      []jsonTiming     `json:"timings,omitempty"`
	TotalMillis  int64            `json:"total_millis"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sgfs-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		chdir      = fs.String("C", ".", "analyze the module containing this directory")
		ignorePath = fs.String("ignore", "", "allowlist file (default <module>/.sgfsvet-ignore)")
		only       = fs.String("run", "", "comma-separated analyzer names to run (default all)")
		runAll     = fs.Bool("all", false, "run the complete analyzer suite (overrides -run and per-analyzer flags)")
		jsonOut    = fs.Bool("json", false, "emit a machine-readable report on stdout")
		timing     = fs.Bool("timing", false, "report per-analyzer wall time on stderr")
		prune      = fs.Bool("prune", false, "rewrite the allowlist dropping stale entries (requires a full run)")
		annotate   = fs.String("annotate", "", "emit GitHub Actions annotations from a -json report file and exit")
		budget     = fs.Duration("budget", 0, "with -annotate: fail when the report's total analysis time exceeds this")
	)
	all := vet.DefaultAnalyzers()
	enabled := make(map[string]*bool, len(all))
	for _, a := range all {
		enabled[a.Name()] = fs.Bool(a.Name(), true, "enable the "+a.Name()+" analyzer")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *annotate != "" {
		return runAnnotate(*annotate, *budget, stdout, stderr)
	}

	moduleRoot, err := vet.FindModuleRoot(*chdir)
	if err != nil {
		fmt.Fprintln(stderr, "sgfs-vet:", err)
		return 2
	}
	loader, err := vet.NewLoader(moduleRoot)
	if err != nil {
		fmt.Fprintln(stderr, "sgfs-vet:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*vet.Package
	for _, pattern := range patterns {
		dirs, err := vet.PackageDirs(moduleRoot, pattern)
		if err != nil {
			fmt.Fprintf(stderr, "sgfs-vet: %s: %v\n", pattern, err)
			return 2
		}
		for _, dir := range dirs {
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				fmt.Fprintf(stderr, "sgfs-vet: %s: %v\n", dir, err)
				return 2
			}
			pkgs = append(pkgs, pkg)
		}
	}
	loadErrors := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "sgfs-vet: typecheck %s: %v\n", pkg.ImportPath, terr)
			loadErrors++
		}
	}
	if loadErrors > 0 {
		return 2
	}

	allEnabled := true
	var selected []vet.Analyzer
	for _, a := range all {
		if !*runAll && !*enabled[a.Name()] {
			allEnabled = false
			continue
		}
		selected = append(selected, a)
	}
	if *runAll {
		*only = ""
		allEnabled = true
	}
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var filtered []vet.Analyzer
		for _, a := range selected {
			if want[a.Name()] {
				filtered = append(filtered, a)
				delete(want, a.Name())
			}
		}
		if len(want) > 0 {
			for name := range want {
				fmt.Fprintf(stderr, "sgfs-vet: unknown analyzer %q\n", name)
			}
			return 2
		}
		selected = filtered
	}

	ipath := *ignorePath
	if ipath == "" {
		ipath = filepath.Join(moduleRoot, ".sgfsvet-ignore")
	}
	ignore, err := vet.LoadIgnore(ipath)
	if err != nil {
		fmt.Fprintln(stderr, "sgfs-vet:", err)
		return 2
	}

	relFile := func(name string) string {
		if rel, err := filepath.Rel(moduleRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return filepath.ToSlash(name)
	}
	report := jsonReport{
		ModuleRoot: moduleRoot,
		Findings:   []jsonDiagnostic{},
		Suppressed: []jsonDiagnostic{},
	}
	diags, timings := vet.RunAllTimed(pkgs, selected)
	for _, t := range timings {
		report.Timings = append(report.Timings, jsonTiming{Analyzer: t.Name, Millis: t.Elapsed.Milliseconds()})
		report.TotalMillis += t.Elapsed.Milliseconds()
	}
	if *timing {
		fmt.Fprintln(stderr, "sgfs-vet: analyzer wall time:")
		for _, t := range timings {
			fmt.Fprintf(stderr, "  %-20s %8dms\n", t.Name, t.Elapsed.Milliseconds())
		}
		fmt.Fprintf(stderr, "  %-20s %8dms\n", "total", report.TotalMillis)
	}
	for _, d := range diags {
		jd := jsonDiagnostic{
			Analyzer: d.Analyzer,
			File:     relFile(d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		}
		if ignore.Match(d) {
			report.Suppressed = append(report.Suppressed, jd)
			continue
		}
		report.Findings = append(report.Findings, jd)
		if !*jsonOut {
			fmt.Fprintln(stdout, d)
		}
	}
	// Stale allowlist entries rot silently; surface them, but only
	// when a full run could have matched them. An explicit `./...`
	// (how make check invokes us) is a full run too.
	fullRun := len(fs.Args()) == 0 ||
		(len(fs.Args()) == 1 && fs.Args()[0] == "./...")
	if *only == "" && allEnabled && fullRun {
		report.StaleIgnores = ignore.Unused()
		if *prune {
			removed, err := vet.PruneIgnore(ipath, report.StaleIgnores)
			if err != nil {
				fmt.Fprintln(stderr, "sgfs-vet: prune:", err)
				return 2
			}
			if removed > 0 {
				fmt.Fprintf(stderr, "sgfs-vet: pruned %d stale allowlist line(s) from %s\n", removed, ipath)
			}
			report.StaleIgnores = nil
		}
		for _, line := range report.StaleIgnores {
			fmt.Fprintf(stderr, "sgfs-vet: %s:%d: allowlist entry matched nothing\n", ipath, line)
		}
	} else if *prune {
		fmt.Fprintln(stderr, "sgfs-vet: -prune needs a full run (all analyzers, whole module) to prove entries stale")
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "sgfs-vet:", err)
			return 2
		}
	}
	if len(report.Findings) > 0 {
		fmt.Fprintf(stderr, "sgfs-vet: %d finding(s)\n", len(report.Findings))
	}
	// A rotten allowlist is a configuration error, not a finding: the
	// suppression set no longer describes the code, so nothing this run
	// reported (or didn't) can be trusted until it is repaired.
	if len(report.StaleIgnores) > 0 {
		fmt.Fprintf(stderr, "sgfs-vet: allowlist is stale: %d entr%s in %s matched nothing; delete them or run -prune\n",
			len(report.StaleIgnores), plural(len(report.StaleIgnores), "y", "ies"), ipath)
		return 2
	}
	if len(report.Findings) > 0 {
		return 1
	}
	return 0
}

// plural picks the singular or plural suffix for a count.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// runAnnotate replays a -json report as GitHub Actions workflow
// runAnnotate replays a -json report as GitHub Actions workflow
// commands so findings land as inline annotations on pull requests,
// and enforces the analysis-time budget that keeps the suite viable
// as a merge gate.
func runAnnotate(path string, budget time.Duration, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "sgfs-vet:", err)
		return 2
	}
	var report jsonReport
	if err := json.Unmarshal(data, &report); err != nil {
		fmt.Fprintf(stderr, "sgfs-vet: %s: %v\n", path, err)
		return 2
	}
	for _, f := range report.Findings {
		fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=sgfs-vet %s::%s\n",
			escapeProperty(f.File), f.Line, f.Column, escapeProperty(f.Analyzer), escapeData(f.Message))
	}
	for _, line := range report.StaleIgnores {
		fmt.Fprintf(stdout, "::warning file=.sgfsvet-ignore,line=%d::allowlist entry matched nothing (stale)\n", line)
	}
	fail := len(report.Findings) > 0
	if budget > 0 && time.Duration(report.TotalMillis)*time.Millisecond > budget {
		fmt.Fprintf(stdout, "::error title=sgfs-vet budget::analysis took %dms, over the %s budget\n",
			report.TotalMillis, budget)
		fail = true
	}
	if fail {
		fmt.Fprintf(stderr, "sgfs-vet: %d finding(s) in %s\n", len(report.Findings), path)
		return 1
	}
	return 0
}

// escapeData escapes a workflow-command message per the GitHub Actions
// rules: % first, then the line terminators.
func escapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// escapeProperty escapes a workflow-command property value, which
// additionally cannot contain the property and command separators.
func escapeProperty(s string) string {
	s = escapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
