package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if s := spread([]float64{1, 2, 4, 8, 16}); math.Abs(s-10.5/4) > 1e-12 {
		t.Errorf("spread = %v, want 2.625", s)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one value = %v", s)
	}
}

func TestVerdict(t *testing.T) {
	steadyOld := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name     string
		old, cur []float64
		lower    bool
		bound    float64
		want     string
	}{
		{"same", steadyOld, []float64{100, 100, 101, 99, 100}, false, 0.08, "ok"},
		{"rate fell 15%", steadyOld, []float64{85, 86, 84, 85, 85}, false, 0.08, "worse"},
		{"rate fell within bound", steadyOld, []float64{95, 96, 94, 95, 95}, false, 0.08, "ok"},
		{"latency rose 15%", steadyOld, []float64{115, 116, 114, 115, 115}, true, 0.08, "worse"},
		{"latency fell", steadyOld, []float64{50, 51, 49, 50, 50}, true, 0.08, "ok"},
		{"noisy new side", steadyOld, []float64{80, 120, 100, 70, 130}, false, 0.08, "unresolved"},
		{"noisy but every run better", []float64{80, 120, 100, 70, 130}, []float64{140, 150, 141, 160, 139}, false, 0.08, "ok"},
	}
	for _, c := range cases {
		if got := verdict(c.old, c.cur, c.lower, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, b, 0644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	doc := func(mbps []float64, failed int) suiteDoc {
		return suiteDoc{Commit: "x", Workloads: []suiteWorkload{{
			Name: "seqread-lan", Attempted: 100, Failed: failed,
			EndToEnd: map[string][]float64{"MBps": mbps},
		}}}
	}
	bounds := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "MBps", "unit": "MB/s", "better": "higher", "bound": 0.08},
	}})
	base := write("old.json", doc([]float64{100, 101, 99}, 0))

	var out bytes.Buffer
	failed, err := compareFiles(base, write("same.json", doc([]float64{100, 100, 100}, 0)), bounds, &out)
	if err != nil || failed || !strings.Contains(out.String(), "ok") {
		t.Errorf("same numbers: failed=%v err=%v\n%s", failed, err, out.String())
	}
	out.Reset()
	failed, err = compareFiles(base, write("slow.json", doc([]float64{80, 81, 79}, 0)), bounds, &out)
	if err != nil || !failed || !strings.Contains(out.String(), "worse") {
		t.Errorf("20%% slower: failed=%v err=%v\n%s", failed, err, out.String())
	}
	out.Reset()
	failed, err = compareFiles(base, write("broken.json", doc([]float64{100, 100, 100}, 1)), bounds, &out)
	if err != nil || !failed || !strings.Contains(out.String(), "fail_share rose") {
		t.Errorf("one failed operation: failed=%v err=%v\n%s", failed, err, out.String())
	}
}
