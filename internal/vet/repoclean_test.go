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
	t.Parallel()
	w := loadWholeModule(t)
	ignore, err := LoadIgnore(filepath.Join(w.root, ".sgfsvet-ignore"), w.root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range w.diags {
		if ignore.Match(d) {
			continue
		}
		t.Errorf("unsuppressed finding: %s", d)
	}
	for _, line := range ignore.Unused() {
		t.Errorf(".sgfsvet-ignore:%d: allowlist entry matched nothing (stale)", line)
	}
}
