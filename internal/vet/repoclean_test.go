package vet

import (
	"path/filepath"
	"testing"
)

// TestRepoClean runs the complete analyzer suite over the real module
// and asserts there are no findings beyond the checked-in allowlist.
// It is the regression gate that keeps the codebase at zero unsuppressed
// diagnostics: a change that introduces a finding (or orphans an
// allowlist entry) fails here before it reaches CI's sgfs-vet step.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the whole module; skipped in -short mode")
	}
	t.Parallel()

	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := PackageDirs(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("typecheck %s: %v", pkg.ImportPath, terr)
		}
		pkgs = append(pkgs, pkg)
	}

	ignore, err := LoadIgnore(filepath.Join(root, ".sgfsvet-ignore"), root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAll(pkgs, DefaultAnalyzers()) {
		if ignore.Match(d) {
			continue
		}
		t.Errorf("unsuppressed finding: %s", d)
	}
	for _, line := range ignore.Unused() {
		t.Errorf(".sgfsvet-ignore:%d: allowlist entry matched nothing (stale)", line)
	}
}
