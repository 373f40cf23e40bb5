package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// opListHash runs the small-file generator for n rounds and hashes the
// printed op list.
func opListHash(seed uint64, n int) string {
	g := newSmallGen(seed, workRoot, 50, 2000)
	h := sha256.New()
	for i := 0; i < n; i++ {
		for _, op := range g.nextRound() {
			fmt.Fprintln(h, op)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The op list and the file contents are the benchmark's inputs: if
// either changes, every committed number is measured on a different
// workload. These hashes pin them.
func TestGeneratorGolden(t *testing.T) {
	const goldenOps = "29a31ad1681464a64d90503a3b8268bb479ca1c566474132131f25921aa948be"
	if got := opListHash(1, 1000); got != goldenOps {
		t.Errorf("seed 1 op list hash = %s, want %s", got, goldenOps)
	}
	if opListHash(1, 1000) != opListHash(1, 1000) {
		t.Error("same seed gave two different op lists")
	}
	if opListHash(2, 1000) == opListHash(1, 1000) {
		t.Error("seeds 1 and 2 gave the same op list")
	}

	const goldenContent = "559999ea43c01612ea98d3b8b60f1b41804d22a7827c178ea1c4222fd6f80d38"
	buf := make([]byte, 4096)
	fillContent(buf, contentKey(1, bulkPath), 8192)
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != goldenContent {
		t.Errorf("content hash = %s, want %s", got, goldenContent)
	}
}

func TestGeneratorModel(t *testing.T) {
	g := newSmallGen(7, workRoot, 4, 16)
	kinds := map[int]int{}
	for i := 0; i < 900; i++ {
		for _, op := range g.nextRound() {
			kinds[op.Kind]++
			if op.Kind != txListDir && (op.Off%8 != 0 || op.Size%8 != 0) {
				t.Fatalf("%v: offset or size not 8-aligned", op)
			}
		}
	}
	for k := 0; k < roundSize; k++ {
		if kinds[k] != 900 {
			t.Errorf("%s: %d transactions, want 900", txNames[k], kinds[k])
		}
	}
	if len(g.live) != 16 || len(g.removed) != 900 {
		t.Errorf("model has %d live and %d removed files, want 16 and 900", len(g.live), len(g.removed))
	}
}

func TestCheckContent(t *testing.T) {
	key := contentKey(3, "w/x")
	buf := make([]byte, 32<<10)
	fillContent(buf, key, 64<<10)
	if bad := checkContent(buf, key, 64<<10, 1); bad != 0 {
		t.Fatalf("clean buffer: %d bad words", bad)
	}
	if bad := checkContent(buf, key, 64<<10, 509); bad != 0 {
		t.Fatalf("clean buffer, sampled: %d bad words", bad)
	}
	for _, at := range []int{0, 8 * 509, len(buf) - 1} {
		buf[at] ^= 1
		if checkContent(buf, key, 64<<10, 1) != 1 {
			t.Errorf("flipped byte %d not found by the full check", at)
		}
		if checkContent(buf, key, 64<<10, 509) != 1 {
			t.Errorf("flipped byte %d (a sampled word) not found by the sampled check", at)
		}
		buf[at] ^= 1
	}
}
