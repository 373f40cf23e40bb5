package vet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The alloc census and budget. AllocCensus runs the alloc-hotpath
// pipeline and reports every heap-classified site reachable from each
// //sgfsvet:hot-path root. CompareAllocBudget diffs a fresh census
// against the committed baseline (.sgfsvet-allocs.json) by (file,
// function, kind) bucket and by per-root totals, so CI fails when a
// change adds heap allocations to a hot path — but tolerates line
// drift and welcomes shrinkage without churn. The baseline stores
// exactly what that comparison reads (CensusReport.Baseline): root
// totals and bucket counts, no per-site lines to regenerate when a
// file moves.

// AllocCensusSchema versions the baseline file format. Schema 1 kept
// per-site records and no buckets.
const AllocCensusSchema = 2

// AllocSiteRecord is one heap-classified allocation site.
type AllocSiteRecord struct {
	File   string   `json:"file"`
	Line   int      `json:"line"`
	Func   string   `json:"func"`
	Kind   string   `json:"kind"`
	Detail string   `json:"detail,omitempty"`
	Roots  []string `json:"roots"`
}

// AllocRootRecord totals one hot-path root's exposure.
type AllocRootRecord struct {
	Root      string `json:"root"`
	Funcs     int    `json:"funcs"`
	HeapSites int    `json:"heap_sites"`
}

// AllocBucketRecord counts the heap sites of one kind in one function:
// the granularity the budget compares at, so moving a line or renaming
// a detail does not trip the gate — adding an allocation does.
type AllocBucketRecord struct {
	File  string `json:"file"`
	Func  string `json:"func"`
	Kind  string `json:"kind"`
	Sites int    `json:"sites"`
}

// CensusReport is the alloc census. Roots and Buckets are what the
// budget compares and what the baseline file stores; Sites is the
// per-site detail -alloc-census prints for people and CI artifacts.
type CensusReport struct {
	Schema  int                 `json:"schema"`
	Roots   []AllocRootRecord   `json:"roots"`
	Buckets []AllocBucketRecord `json:"buckets"`
	Sites   []AllocSiteRecord   `json:"sites,omitempty"`
}

// Baseline returns the report without its per-site detail: the form
// committed as .sgfsvet-allocs.json.
func (r *CensusReport) Baseline() *CensusReport {
	b := *r
	b.Sites = nil
	return &b
}

// AllocCensus analyzes pkgs and returns the census of heap sites per
// hot-path root. File paths are relativized to moduleRoot when given.
// Returns nil when no //sgfsvet:hot-path directives exist.
func AllocCensus(pkgs []*Package, moduleRoot string) *CensusReport {
	an := analyzeAllocs(NewModule(pkgs))
	if an == nil {
		return nil
	}
	rep := &CensusReport{Schema: AllocCensusSchema}

	rootFuncs := make(map[string]int)
	rootSites := make(map[string]int)
	for _, roots := range an.hot {
		for _, r := range roots {
			rootFuncs[r]++
		}
	}
	for _, s := range an.sites {
		if !s.heap || len(s.roots) == 0 {
			continue
		}
		pos := s.pkg.Fset.Position(s.pos)
		file := filepath.ToSlash(pos.Filename)
		if moduleRoot != "" {
			if rel, err := filepath.Rel(moduleRoot, pos.Filename); err == nil {
				file = filepath.ToSlash(rel)
			}
		}
		roots := append([]string(nil), s.roots...)
		rep.Sites = append(rep.Sites, AllocSiteRecord{
			File:   file,
			Line:   pos.Line,
			Func:   s.pkg.Types.Name() + "." + shortFuncName(s.fn),
			Kind:   s.kind,
			Detail: s.detail,
			Roots:  roots,
		})
		for _, r := range roots {
			rootSites[r]++
		}
	}
	sort.Slice(rep.Sites, func(i, j int) bool {
		a, b := rep.Sites[i], rep.Sites[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Kind < b.Kind
	})

	rep.Buckets = bucketsOf(rep.Sites)

	names := make([]string, 0, len(rootFuncs))
	for r := range rootFuncs {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		rep.Roots = append(rep.Roots, AllocRootRecord{
			Root:      r,
			Funcs:     rootFuncs[r],
			HeapSites: rootSites[r],
		})
	}
	return rep
}

// JSON serializes the report in the stable baseline format.
func (r *CensusReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// LoadAllocBaseline reads a committed census baseline.
func LoadAllocBaseline(path string) (*CensusReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep CensusReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != AllocCensusSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d (regenerate with `make alloc-baseline`)", path, rep.Schema, AllocCensusSchema)
	}
	return &rep, nil
}

// bucketsOf counts sites per (file, function, kind), ordered by that
// key.
func bucketsOf(sites []AllocSiteRecord) []AllocBucketRecord {
	counts := make(map[[3]string]int)
	for _, s := range sites {
		counts[[3]string{s.File, s.Func, s.Kind}]++
	}
	out := make([]AllocBucketRecord, 0, len(counts))
	for k, n := range counts {
		out = append(out, AllocBucketRecord{File: k[0], Func: k[1], Kind: k[2], Sites: n})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Kind < b.Kind
	})
	return out
}

// CompareAllocBudget reports budget violations: buckets whose heap-site
// count grew over the baseline, new buckets, and roots whose totals
// grew. Shrinking is always within budget (refresh the baseline to
// lock it in). The returned messages are empty when current fits.
func CompareAllocBudget(baseline, current *CensusReport) []string {
	var problems []string

	base := make(map[[3]string]int, len(baseline.Buckets))
	for _, b := range baseline.Buckets {
		base[[3]string{b.File, b.Func, b.Kind}] = b.Sites
	}
	for _, c := range current.Buckets {
		switch b := base[[3]string{c.File, c.Func, c.Kind}]; {
		case c.Sites <= b:
		case b == 0:
			problems = append(problems, fmt.Sprintf(
				"%s: %s: new hot-path heap allocation (%s, %d site(s)) not in baseline",
				c.File, c.Func, c.Kind, c.Sites))
		default:
			problems = append(problems, fmt.Sprintf(
				"%s: %s: hot-path heap allocations grew: %d %s site(s), baseline %d",
				c.File, c.Func, c.Sites, c.Kind, b))
		}
	}

	baseRoots := make(map[string]int, len(baseline.Roots))
	for _, r := range baseline.Roots {
		baseRoots[r.Root] = r.HeapSites
	}
	for _, r := range current.Roots {
		b, known := baseRoots[r.Root]
		if !known {
			problems = append(problems, fmt.Sprintf(
				"root %s: not in baseline (%d heap sites); regenerate with `make alloc-baseline`", r.Root, r.HeapSites))
			continue
		}
		if r.HeapSites > b {
			problems = append(problems, fmt.Sprintf(
				"root %s: heap sites grew to %d, baseline %d", r.Root, r.HeapSites, b))
		}
	}
	return problems
}
