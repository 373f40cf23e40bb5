package vet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureCensus loads the allochotpath fixture and runs the census
// with paths relativized to the fixture directory.
func fixtureCensus(t *testing.T) *CensusReport {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", "allochotpath")
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := AllocCensus([]*Package{pkg}, abs)
	if rep == nil {
		t.Fatal("census is nil despite a hot-path root in the fixture")
	}
	return rep
}

func TestAllocCensusFixture(t *testing.T) {
	t.Parallel()
	rep := fixtureCensus(t)
	if rep.Schema != AllocCensusSchema {
		t.Fatalf("schema = %d, want %d", rep.Schema, AllocCensusSchema)
	}
	if len(rep.Roots) != 1 {
		t.Fatalf("roots = %+v, want exactly one", rep.Roots)
	}
	root := rep.Roots[0]
	if root.Root != "allochotpath.process" {
		t.Fatalf("root name = %q", root.Root)
	}
	// process plus the eight helpers it reaches; cold is excluded.
	if root.Funcs != 9 {
		t.Errorf("root funcs = %d, want 9", root.Funcs)
	}
	if root.HeapSites != len(rep.Sites) {
		t.Errorf("root heap sites = %d, but census lists %d", root.HeapSites, len(rep.Sites))
	}

	byKey := make(map[string]AllocSiteRecord)
	for _, s := range rep.Sites {
		if s.File != "allochotpath.go" {
			t.Errorf("site file %q not relativized", s.File)
		}
		if len(s.Roots) != 1 || s.Roots[0] != "allochotpath.process" {
			t.Errorf("site %s:%d roots = %v", s.File, s.Line, s.Roots)
		}
		byKey[s.Func+"/"+s.Kind] = s
	}
	// The escaping make in the root's loop and the defer record must be
	// censused; the stack-only scratch and anything in cold must not.
	if _, ok := byKey["allochotpath.process/"+kindMake]; !ok {
		t.Errorf("escaping make in process missing from census: %+v", rep.Sites)
	}
	if _, ok := byKey["allochotpath.process/"+kindDeferLoop]; !ok {
		t.Errorf("defer-in-loop site missing from census")
	}
	for k := range byKey {
		if strings.HasPrefix(k, "allochotpath.stackOnly/") {
			t.Errorf("stack-only scratch censused as heap: %s", k)
		}
		if strings.HasPrefix(k, "allochotpath.cold/") {
			t.Errorf("cold function censused: %s", k)
		}
	}
}

// TestAllocCensusRoundTrip writes the fixture census in its committed
// form — root totals and bucket counts, no sites — and checks the full
// census fits it, and that the full -alloc-census output loads as a
// baseline too (its per-site detail is ignored).
func TestAllocCensusRoundTrip(t *testing.T) {
	t.Parallel()
	rep := fixtureCensus(t)
	sum := 0
	for _, b := range rep.Buckets {
		sum += b.Sites
	}
	if sum != len(rep.Sites) {
		t.Fatalf("buckets count %d sites, census lists %d", sum, len(rep.Sites))
	}
	for _, form := range []*CensusReport{rep.Baseline(), rep} {
		data, err := form.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if form != rep && strings.Contains(string(data), `"sites": [`) {
			t.Fatalf("baseline form still carries per-site records:\n%s", data)
		}
		path := filepath.Join(t.TempDir(), "allocs.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadAllocBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		if problems := CompareAllocBudget(loaded, rep); len(problems) != 0 {
			t.Fatalf("census does not fit its own baseline: %v", problems)
		}
	}
}

func TestLoadAllocBaselineSchemaMismatch(t *testing.T) {
	t.Parallel()
	for _, old := range []string{
		`{"schema": 99, "roots": [], "buckets": []}`,
		// A schema-1 baseline: per-site records, no buckets.
		`{"schema": 1, "roots": [], "sites": [{"file": "a.go", "line": 1, "func": "p.f", "kind": "make", "roots": ["p.f"]}]}`,
	} {
		path := filepath.Join(t.TempDir(), "allocs.json")
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadAllocBaseline(path)
		if err == nil || !strings.Contains(err.Error(), "schema") || !strings.Contains(err.Error(), "make alloc-baseline") {
			t.Fatalf("err = %v, want schema mismatch with the regenerate hint", err)
		}
	}
}

func TestCompareAllocBudget(t *testing.T) {
	t.Parallel()
	bucket := func(file, fn, kind string, sites int) AllocBucketRecord {
		return AllocBucketRecord{File: file, Func: fn, Kind: kind, Sites: sites}
	}
	report := func(heapSites int, buckets ...AllocBucketRecord) *CensusReport {
		return &CensusReport{
			Schema:  AllocCensusSchema,
			Roots:   []AllocRootRecord{{Root: "p.Root", Funcs: 2, HeapSites: heapSites}},
			Buckets: buckets,
		}
	}
	baseline := report(3, bucket("a.go", "p.f", kindMake, 2), bucket("a.go", "p.g", kindFormat, 1))

	t.Run("identical", func(t *testing.T) {
		if p := CompareAllocBudget(baseline, baseline); len(p) != 0 {
			t.Fatalf("problems = %v", p)
		}
	})
	t.Run("line drift tolerated", func(t *testing.T) {
		// The baseline has no lines to drift from: a census whose sites
		// moved buckets the same.
		cur := report(3, bucketsOf([]AllocSiteRecord{
			{File: "a.go", Line: 12, Func: "p.f", Kind: kindMake},
			{File: "a.go", Line: 25, Func: "p.f", Kind: kindMake},
			{File: "a.go", Line: 33, Func: "p.g", Kind: kindFormat},
		})...)
		if p := CompareAllocBudget(baseline, cur); len(p) != 0 {
			t.Fatalf("problems = %v", p)
		}
	})
	t.Run("bucket growth", func(t *testing.T) {
		cur := report(4, bucket("a.go", "p.f", kindMake, 3), bucket("a.go", "p.g", kindFormat, 1))
		p := CompareAllocBudget(baseline, cur)
		if len(p) != 2 {
			t.Fatalf("problems = %v, want bucket growth and root growth", p)
		}
		if !strings.Contains(p[0], "grew: 3 make site(s), baseline 2") || !strings.Contains(p[1], "grew") {
			t.Fatalf("problems = %v", p)
		}
	})
	t.Run("new bucket", func(t *testing.T) {
		cur := report(3, bucket("a.go", "p.f", kindMake, 2), bucket("b.go", "p.h", kindClosure, 1))
		p := CompareAllocBudget(baseline, cur)
		if len(p) != 1 || !strings.Contains(p[0], "not in baseline") {
			t.Fatalf("problems = %v, want one new-bucket report", p)
		}
	})
	t.Run("unknown root", func(t *testing.T) {
		cur := report(3, baseline.Buckets...)
		cur.Roots = append(cur.Roots, AllocRootRecord{Root: "p.Other", Funcs: 1, HeapSites: 1})
		p := CompareAllocBudget(baseline, cur)
		if len(p) != 1 || !strings.Contains(p[0], "p.Other") {
			t.Fatalf("problems = %v, want unknown-root report", p)
		}
	})
	t.Run("shrink is fine", func(t *testing.T) {
		cur := report(1, bucket("a.go", "p.f", kindMake, 1))
		if p := CompareAllocBudget(baseline, cur); len(p) != 0 {
			t.Fatalf("problems = %v", p)
		}
	})
}
