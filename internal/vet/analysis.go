package vet

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// compare orders findings by file, line, message, then analyzer;
// zero means the two are the same finding.
func (d Diagnostic) compare(o Diagnostic) int {
	if c := strings.Compare(d.Pos.Filename, o.Pos.Filename); c != 0 {
		return c
	}
	if d.Pos.Line != o.Pos.Line {
		return d.Pos.Line - o.Pos.Line
	}
	if c := strings.Compare(d.Message, o.Message); c != 0 {
		return c
	}
	return strings.Compare(d.Analyzer, o.Analyzer)
}

// Analyzer is one named check. Every analyzer also implements
// PackageAnalyzer or ModuleAnalyzer, which is how RunAll drives it.
type Analyzer interface {
	Name() string
}

// PackageAnalyzer is a check whose every fact is local to one package
// (swallowed-error, goroutine-leak).
type PackageAnalyzer interface {
	Analyzer
	Run(pkg *Package) []Diagnostic
}

// ModuleAnalyzer is a check that follows calls, locks or values across
// function and package boundaries. It reads the shared Module — the
// declaration index, call graph, body list and CFGs — instead of
// building its own.
type ModuleAnalyzer interface {
	Analyzer
	RunModule(m *Module) []Diagnostic
}

// AnalyzerTiming records one analyzer's wall-clock cost over a RunAll
// invocation, in suite order.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// moduleTimingName labels the shared Module build in the timings, so
// its cost is not charged to whichever analyzer happens to run first.
const moduleTimingName = "module"

// RunAll applies every analyzer to every package and returns the
// combined findings, deduplicated and sorted by position.
func RunAll(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	diags, _ := RunAllTimed(pkgs, analyzers)
	return diags
}

// RunAllTimed is RunAll with a wall-time breakdown — the Module build
// first, then one row per analyzer — so the CLI's -timing flag and
// CI's analysis-time budget can see where the suite spends its time.
func RunAllTimed(pkgs []*Package, analyzers []Analyzer) ([]Diagnostic, []AnalyzerTiming) {
	start := time.Now()
	m := NewModule(pkgs)
	timings := make([]AnalyzerTiming, 0, len(analyzers)+1)
	timings = append(timings, AnalyzerTiming{Name: moduleTimingName, Elapsed: time.Since(start)})

	var all []Diagnostic
	for _, a := range analyzers {
		start := time.Now()
		switch a := a.(type) {
		case ModuleAnalyzer:
			all = append(all, a.RunModule(m)...)
		case PackageAnalyzer:
			for _, pkg := range m.Pkgs {
				all = append(all, a.Run(pkg)...)
			}
		}
		timings = append(timings, AnalyzerTiming{Name: a.Name(), Elapsed: time.Since(start)})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].compare(all[j]) < 0 })
	// One finding per (file, line, message): a site reached twice — two
	// operands on one line, a body replayed in two modes — is reported
	// once, so analyzers need no private dedupe.
	out := all[:0]
	for i, d := range all {
		if i == 0 || d.compare(all[i-1]) != 0 {
			out = append(out, d)
		}
	}
	return out, timings
}

// IgnoreList holds vetted exceptions loaded from a .sgfsvet-ignore
// file. Each non-comment line has the form
//
//	<analyzer> <path-fragment> <message-fragment...>
//
// A diagnostic is suppressed when its analyzer matches (or the entry
// uses *), the path fragment is a prefix of its file's module-relative
// slash path (so the checkout's own directory name never matters), and
// the rest of the line occurs in its message. Entries are matched by
// content rather than line number so routine edits do not invalidate
// them.
type IgnoreList struct {
	root    string
	entries []ignoreEntry
	used    []bool
}

type ignoreEntry struct {
	analyzer string
	path     string
	message  string
	line     int
}

// LoadIgnore reads an ignore file whose path fragments are relative to
// the module root; a missing file yields an empty list.
func LoadIgnore(path, root string) (*IgnoreList, error) {
	il := &IgnoreList{root: root}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return il, nil
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: ignore entry needs <analyzer> <path> <message>", path, lineNo)
		}
		msg := strings.TrimSpace(line[strings.Index(line, fields[1])+len(fields[1]):])
		il.entries = append(il.entries, ignoreEntry{
			analyzer: fields[0],
			path:     fields[1],
			message:  msg,
			line:     lineNo,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	il.used = make([]bool, len(il.entries))
	return il, nil
}

// Match reports whether d is covered by an ignore entry, recording
// which entries fired so stale ones can be reported.
func (il *IgnoreList) Match(d Diagnostic) bool {
	path := ModulePath(il.root, d.Pos.Filename)
	for i, e := range il.entries {
		if e.analyzer != "*" && e.analyzer != d.Analyzer {
			continue
		}
		if !strings.HasPrefix(path, e.path) {
			continue
		}
		if !strings.Contains(d.Message, e.message) {
			continue
		}
		il.used[i] = true
		return true
	}
	return false
}

// ModulePath is the file name relative to the module root, with slash
// separators; a file outside root keeps its whole slash path.
func ModulePath(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

// Unused returns the 1-based line numbers of entries that never
// matched a diagnostic, so the allowlist cannot silently rot.
func (il *IgnoreList) Unused() []int {
	var out []int
	for i, u := range il.used {
		if !u {
			out = append(out, il.entries[i].line)
		}
	}
	return out
}

// PruneIgnore rewrites the allowlist at path dropping the given
// 1-based line numbers (as reported by Unused after a full run).
// Comments and blank lines are preserved. Returns how many lines were
// removed; a missing file with nothing to drop is not an error.
func PruneIgnore(path string, stale []int) (int, error) {
	if len(stale) == 0 {
		return 0, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	drop := make(map[int]bool, len(stale))
	for _, n := range stale {
		drop[n] = true
	}
	lines := strings.Split(string(data), "\n")
	kept := lines[:0]
	removed := 0
	for i, line := range lines {
		if drop[i+1] {
			removed++
			continue
		}
		kept = append(kept, line)
	}
	if removed == 0 {
		return 0, nil
	}
	return removed, os.WriteFile(path, []byte(strings.Join(kept, "\n")), 0o644)
}
