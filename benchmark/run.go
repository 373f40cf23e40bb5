package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/vfs"
)

// metricDef names one reported number.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the file system would see, measured by
// the untraced run. Every workload reports every one of them; what one
// operation is differs per workload (workload.op). Directions and
// regression bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},     // stack build, handshake, MOUNT, ACL install, preload, warm-up: median of the run's set-ups
	{"ops_per_s", "1/s"}, // operations per second while the host left the run alone: quietRate
	{"op_p50_ms", "ms"},  // per-operation latency, median
}

// metric is one measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// An untraced run sets the stack up at least untracedSetups times and
// until setupBudget has passed (at most maxSetups times); setup_s is the
// median. A 7 ms set-up (seqwrite-lan) needs many more repeats than a
// 1 s one before its median holds still on a shared box.
const (
	untracedSetups = 5
	maxSetups      = 50
	setupBudget    = 2 * time.Second
)

// runOpts selects one run.
type runOpts struct {
	seed     uint64
	seconds  float64
	traced   bool
	sc       scale
	setups   int           // how many times to set up at least (the last one is used); setup_s is their median
	setupFor time.Duration // keep setting up, at most maxSetups times, until this much time has passed
	traceOut string        // traced runs: write every span here (JSON lines) when non-empty
	replay   time.Duration // traced runs: how long each isolated replay loops (0 = replayBudget)
	// Test hooks: wrapFS wraps the backend the nfs3 server sees, and
	// onTimedPhase is called as the timed phase begins.
	wrapFS       func(vfs.FS) vfs.FS
	onTimedPhase func()
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	attempted int
	failed    int
	errors    []string
	metrics   []metric // every end-to-end metric (untraced) or every per-layer metric (traced)
	diag      []metric // ungated diagnostics, printed but not part of the contract
}

func (r *report) value(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// counters is a snapshot of every product counter a traced run reads;
// the layer metrics are differences between two of them.
type counters struct {
	busy                 [4]time.Duration // proxy client, proxy server, channel client, channel server
	pageHits, pageMisses uint64
	readRPCs, writeRPCs  uint64
	dp                   metrics.DataPathSnapshot
	dc                   cache.Stats
	aclHits, aclMisses   uint64
	chanOut              uint64 // plaintext bytes the client side of the channel sent
	mem                  runtime.MemStats
}

func snapshot(st *stack) *counters {
	c := &counters{}
	for i, m := range []*metrics.Meter{st.m.proxyClient, st.m.proxyServer, st.m.chanClient, st.m.chanServer} {
		c.busy[i] = m.Busy()
	}
	c.pageHits, c.pageMisses = st.fs.CacheStats()
	c.readRPCs, c.writeRPCs = st.fs.RPCCounts()
	c.dp = st.cp.DataPathStats()
	if st.dc != nil {
		c.dc = st.dc.Stats()
	}
	c.aclHits, c.aclMisses = st.sp.ACLCacheStats()
	if ch, ok := st.cp.Channel(); ok {
		_, c.chanOut, _ = ch.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// runWorkload sets the stack up, runs the timed phase, audits, tears
// down and computes the run's metrics.
func runWorkload(w *workload, o runOpts, p *pki) (*report, error) {
	ctx := context.Background()
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	cfg := w.cfg(o.sc)
	cfg.tr, cfg.wrapFS = tr, o.wrapFS

	var e *env
	var setupS []float64
	began := time.Now()
	for i := 0; i < o.setups || (i < maxSetups && time.Since(began) < o.setupFor); i++ {
		if e != nil {
			e.close(ctx)
		}
		t0 := time.Now()
		e = &env{st: &stack{}, seed: o.seed, sc: o.sc, buf: make([]byte, 64<<10)}
		if err := e.st.build(cfg, p); err != nil {
			e.close(ctx)
			return nil, fmt.Errorf("%s: build stack: %w", w.name, err)
		}
		if err := w.setup(ctx, e); err != nil {
			e.close(ctx)
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close(ctx)

	runtime.GC()
	ph := &phase{tr: tr, budget: time.Duration(o.seconds * float64(time.Second))}
	var before, after *counters
	if o.traced {
		before = snapshot(e.st)
	}
	if o.onTimedPhase != nil {
		o.onTimedPhase()
	}
	ph.begin()
	w.run(ctx, e, ph)
	ph.end()
	if o.traced {
		after = snapshot(e.st)
	}
	if w.finish != nil {
		w.finish(ctx, e, ph)
	}

	r := &report{workload: w.name, attempted: ph.attempted, failed: ph.failed, errors: ph.firstErrors}
	if ph.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %.1f s", w.name, o.seconds)
	}
	secs := ph.elapsed.Seconds()
	ph.rate = quietRate(ph.lat)
	sort.Float64s(ph.lat)
	r.diag = []metric{
		{"timed_s", secs, "s"},
		{"ops", float64(ph.ops), "count"},
		{"mean_ops_per_s", float64(ph.ops) / secs, "1/s"},
		{"op_p90_ms", percentile(ph.lat, 0.90), "ms"},
		{"op_p95_ms", percentile(ph.lat, 0.95), "ms"},
		{"op_p99_ms", percentile(ph.lat, 0.99), "ms"},
		{"op_max_ms", ph.lat[len(ph.lat)-1], "ms"},
		{"cpu_s", ph.cpu.Seconds(), "s"},
		{"cpu_ms_per_op", ph.cpu.Seconds() * 1e3 / float64(ph.ops), "ms"},
		{"MBps", float64(ph.bytes) / 1e6 / secs, "MB/s"}, // payload bytes moved; proportional to ops_per_s on the bulk workloads
	}
	if !o.traced {
		r.metrics = []metric{
			{"setup_s", median(setupS), "s"},
			{"ops_per_s", ph.rate, "1/s"},
			{"op_p50_ms", percentile(ph.lat, 0.50), "ms"},
		}
		return r, nil
	}
	// Tear down before the isolated replays so nothing of the stack
	// competes with them.
	e.close(ctx)
	r.metrics = layerMetrics(tr, ph, before, after, replayIsolated(tr, p, o.replay))
	if o.traceOut != "" {
		if err := tr.writeTrace(o.traceOut); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return r, nil
}

// close releases the open bulk file and tears the stack down. It is
// safe to call twice. Teardown trouble cannot change a result that has
// already been measured and audited, so it is only reported.
func (e *env) close(ctx context.Context) {
	var err error
	if e.file != nil {
		err = e.file.Close(ctx)
		e.file = nil
	}
	if err = errors.Join(err, e.st.close()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: teardown:", err)
	}
}

// A run's rate is taken over blocks of at least minBlockOps consecutive
// operations, at most rateBlocks of them.
const (
	rateBlocks  = 20
	minBlockOps = 20
)

// quietRate is the operations per second the run sustained while the
// shared host left it alone. lat holds the latencies, in ms, in the
// order the operations ran. They are cut into consecutive blocks; a
// block's rate is its operations over the sum of their latencies, and
// the result is the upper quartile of the block rates. Other tenants of
// the host only ever slow a block down, and they do it in bursts:
// beside three bursty CPU hogs the plain rate of ten runs of seqread-lan
// spread 13 %, the median block 9 % and the upper-quartile block 3 %.
// Work the program itself does now and then (GC, write-back, readahead)
// still counts when it falls into more than a quarter of the blocks.
// With fewer than 2*minBlockOps operations there is one block and the
// result is the plain rate.
func quietRate(lat []float64) float64 {
	k := len(lat) / minBlockOps
	if k > rateBlocks {
		k = rateBlocks
	}
	if k < 1 {
		k = 1
	}
	rates := make([]float64, k)
	for i := range rates {
		block := lat[i*len(lat)/k : (i+1)*len(lat)/k]
		var ms float64
		for _, l := range block {
			ms += l
		}
		rates[i] = float64(len(block)) * 1e3 / ms
	}
	sort.Float64s(rates)
	return percentile(rates, 0.75)
}

// percentile returns the q-quantile (nearest rank) of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}
