package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// suiteDoc is the -out file: every value of every run of the suite.
type suiteDoc struct {
	Commit    string          `json:"commit"`
	Go        string          `json:"go"`
	NumCPU    int             `json:"nproc"`
	Procs     int             `json:"gomaxprocs"`
	Seed      uint64          `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Workloads []suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// EndToEnd holds one value per untraced run, in seed order.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	PerLayer map[string]float64   `json:"per_layer"`
}

// runSuite runs every workload untraced (runs times, seeds seed,
// seed+1, ...) and then traced once, prints everything, and returns
// whether any operation or check failed.
func runSuite(seed uint64, seconds float64, runs int, out string) (failed bool, err error) {
	p, err := newPKI()
	if err != nil {
		return false, err
	}
	printHeader(seed, seconds)
	doc := suiteDoc{Commit: commit(), Go: runtime.Version(), NumCPU: runtime.NumCPU(), Procs: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds}
	for i := range workloads {
		w := &workloads[i]
		sw := suiteWorkload{Name: w.name, EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		var untracedOps float64
		for n := 0; n < runs; n++ {
			r, err := runWorkload(w, runOpts{seed: seed + uint64(n), seconds: seconds, sc: frozenScale, setups: untracedSetups, setupFor: setupBudget}, p)
			if err != nil {
				return false, err
			}
			printReport(r, false)
			for _, m := range r.metrics {
				sw.EndToEnd[m.name] = append(sw.EndToEnd[m.name], m.value)
			}
			sw.Attempted += r.attempted
			sw.Failed += r.failed
		}
		untracedOps = median(sw.EndToEnd["ops_per_s"])
		r, err := runWorkload(w, runOpts{seed: seed, seconds: seconds, traced: true, sc: frozenScale, setups: 1}, p)
		if err != nil {
			return false, err
		}
		printReport(r, true)
		for _, m := range r.metrics {
			sw.PerLayer[m.name] = m.value
		}
		sw.Attempted += r.attempted
		sw.Failed += r.failed
		if tracedOps, ok := r.value("trace.ops_per_s"); ok && tracedOps > 0 {
			// Same operations per second, so the ratio of rates is the
			// ratio of wall times: traced / untraced.
			fmt.Printf("%-34s %16.6g ratio  (untraced ops_per_s %.6g / traced %.6g)\n",
				"trace.overhead_ratio", untracedOps/tracedOps, untracedOps, tracedOps)
			sw.PerLayer["trace.overhead_ratio"] = untracedOps / tracedOps
		}
		failed = failed || sw.Failed > 0
		doc.Workloads = append(doc.Workloads, sw)
	}
	if out != "" {
		b, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return failed, err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0644); err != nil {
			return failed, err
		}
	}
	return failed, nil
}

// bounds is the part of BENCHMARK.json the comparison needs.
type bounds struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// verdict judges one metric of one workload. worse: the new median is
// worse than the old by more than the bound. unresolved: it is not,
// but either side's own spread is wider than the bound, so "no worse"
// cannot be told from noise — unless every new run beats every old one.
func verdict(old, cur []float64, lowerIsBetter bool, bound float64) string {
	mo, mc := median(old), median(cur)
	worseBy := ratio(mc-mo, mo)
	if !lowerIsBetter {
		worseBy = ratio(mo-mc, mo)
	}
	if worseBy > bound {
		return "worse"
	}
	if spread(old) > bound || spread(cur) > bound {
		for _, c := range cur {
			for _, o := range old {
				if (lowerIsBetter && c >= o) || (!lowerIsBetter && c <= o) {
					return "unresolved"
				}
			}
		}
	}
	return "ok"
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, the ratio with its base, the bound and the verdict. It
// reports failure on any "worse" and on any rise in the share of failed
// operations.
func compareFiles(oldPath, newPath, boundsPath string, w io.Writer) (failed bool, err error) {
	var oldDoc, newDoc suiteDoc
	var b bounds
	for _, f := range []struct {
		path string
		into any
	}{{oldPath, &oldDoc}, {newPath, &newDoc}, {boundsPath, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(data, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Fprintf(w, "old: %s (commit %s)\nnew: %s (commit %s)\n", oldPath, oldDoc.Commit, newPath, newDoc.Commit)
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %22s %6s  %s\n", "workload", "metric", "old median", "new median", "new/old (base: old)", "bound", "verdict")
	for _, nw := range newDoc.Workloads {
		var ow *suiteWorkload
		for i := range oldDoc.Workloads {
			if oldDoc.Workloads[i].Name == nw.Name {
				ow = &oldDoc.Workloads[i]
			}
		}
		if ow == nil {
			fmt.Fprintf(w, "%-14s only in %s\n", nw.Name, newPath)
			continue
		}
		for _, m := range b.EndToEnd {
			old, cur := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			if len(old) == 0 || len(cur) == 0 {
				fmt.Fprintf(w, "%-14s %-14s missing\n", nw.Name, m.Name)
				failed = true
				continue
			}
			v := verdict(old, cur, m.Better == "lower", m.Bound)
			mo, mc := median(old), median(cur)
			fmt.Fprintf(w, "%-14s %-14s %12.5g %12.5g %9.4f of %-9.5g %5.0f%%  %s\n",
				nw.Name, m.Name, mo, mc, ratio(mc, mo), mo, m.Bound*100, v)
			failed = failed || v == "worse"
		}
		oldShare := ratio(float64(ow.Failed), float64(ow.Attempted))
		newShare := ratio(float64(nw.Failed), float64(nw.Attempted))
		if newShare > oldShare {
			fmt.Fprintf(w, "%-14s fail_share rose: %d/%d -> %d/%d\n", nw.Name, ow.Failed, ow.Attempted, nw.Failed, nw.Attempted)
			failed = true
		}
	}
	return failed, nil
}
