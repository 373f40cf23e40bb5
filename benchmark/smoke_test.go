package main

import (
	"encoding/json"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// toyScale keeps the smoke test under ten seconds; only tests use a
// scale other than frozenScale.
var toyScale = scale{
	rtt:      2 * time.Millisecond,
	lanPages: 256 << 10,
	wanPages: 128 << 10,

	seqFile:   2 << 20,
	writeFile: 1 << 20,
	coldFile:  128 << 10,
	coldFiles: 4,
	warmFile:  512 << 10,
	flushFile: 256 << 10,
	extent:    256 << 10,

	lanDirs: 3, lanFiles: 12, lanWarm: 1,
	wanDirs: 2, wanFiles: 8, wanWarm: 1,
}

func toyOpts(traced bool) runOpts {
	return runOpts{seed: 1, seconds: 0.25, traced: traced, sc: toyScale, setups: 1, replay: 10 * time.Millisecond}
}

// checkMetrics asserts that r holds exactly the defined metrics, once
// each, finite and with the defined unit.
func checkMetrics(t *testing.T, r *report, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(r.metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", r.workload, len(r.metrics), len(defs))
	}
	seen := map[string]bool{}
	for _, m := range r.metrics {
		if seen[m.name] {
			t.Errorf("%s: %s emitted twice", r.workload, m.name)
		}
		seen[m.name] = true
	}
	for _, d := range defs {
		v, ok := r.value(d.name)
		switch {
		case !ok:
			t.Errorf("%s: %s missing", r.workload, d.name)
		case math.IsNaN(v) || math.IsInf(v, 0) || v < 0:
			t.Errorf("%s: %s = %v", r.workload, d.name, v)
		case nonZero && v == 0:
			t.Errorf("%s: %s is 0; end-to-end metrics must never be", r.workload, d.name)
		}
	}
	for _, m := range r.metrics {
		for _, d := range defs {
			if d.name == m.name && d.unit != m.unit {
				t.Errorf("%s: %s has unit %q, want %q", r.workload, m.name, m.unit, d.unit)
			}
		}
	}
}

// TestSmoke runs every workload at toy size, traced and untraced, so
// that go test ./... guards the benchmark.
func TestSmoke(t *testing.T) {
	p, err := newPKI()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(w, toyOpts(traced), p)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s (traced=%v): %d of %d failed: %v", w.name, traced, r.failed, r.attempted, r.errors)
			}
			if !traced {
				checkMetrics(t, r, endToEnd, true)
				continue
			}
			checkMetrics(t, r, perLayer, false)
			if w.name == "smallfile-lan" {
				// One operation outstanding at a time, so the layer times
				// must add up to the traced wall time.
				if v, _ := r.value("trace.accounted_ratio"); v < 0.9 || v > 1.1 {
					t.Errorf("smallfile-lan: layers account for %.3f of the wall time, want 0.9 to 1.1", v)
				}
			}
		}
	}
}

func TestTraceFile(t *testing.T) {
	p, err := newPKI()
	if err != nil {
		t.Fatal(err)
	}
	o := toyOpts(true)
	o.traceOut = t.TempDir() + "/trace.jsonl"
	if _, err := runWorkload(findWorkload("smallfile-lan"), o, p); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	layers := map[string]int{}
	orphans := 0
	for dec.More() {
		var l traceLine
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		layers[l.Layer]++
		if l.EndNs < l.StartNs {
			t.Fatalf("span ends before it starts: %+v", l)
		}
		if l.Layer != "op" && l.Parent < 0 {
			orphans++
		}
	}
	for _, name := range layerNames {
		if layers[name] == 0 {
			t.Errorf("no %s spans in the trace file", name)
		}
	}
	// In a closed loop with one operation outstanding every span has a
	// parent, bar a straggler at the phase boundary.
	if total := layers["client-hop"] + layers["server-hop"] + layers["vfs"]; orphans*20 > total {
		t.Errorf("%d of %d spans have no parent", orphans, total)
	}
}

// flipFS, once armed, flips one bit in every write it passes on. (One
// flip in the whole run could land in a file the workload removes
// before the audit.)
type flipFS struct {
	vfs.FS
	armed atomic.Bool
}

func (f *flipFS) Write(h vfs.Handle, off uint64, data []byte) error {
	if len(data) > 0 && f.armed.Load() {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x40
	}
	return f.FS.Write(h, off, data)
}

// A backend that flips a single bit of what it is given must show up as
// failed operations (and with them a non-zero exit): the audits read
// the backend directly and compare every byte with the generator's
// model.
func TestAuditCatchesFlippedBits(t *testing.T) {
	p, err := newPKI()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"smallfile-lan", "seqwrite-lan", "writeback-wan"} {
		o := toyOpts(false)
		flip := &flipFS{} // armed only for the timed phase: set-up goes through untouched
		o.wrapFS = func(fs vfs.FS) vfs.FS { flip.FS = fs; return flip }
		o.onTimedPhase = func() { flip.armed.Store(true) }
		r, err := runWorkload(findWorkload(name), o, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.failed == 0 {
			t.Errorf("%s: flipped bits in the backend went unnoticed (%d checks)", name, r.attempted)
		}
	}
}

// BENCHMARK.json is what the driver reads; it must name exactly the
// workloads and metrics the program emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s [%s], want %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s [%s], want %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
