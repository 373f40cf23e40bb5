package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nfs3"
)

// The traced run records one span per generator operation, per RPC on
// each plaintext hop and per backend call. Spans stay in memory; the
// per-layer numbers are interval arithmetic over them (layers.go) and
// -trace-out writes them once, after the workload.

// Span layers, outermost first.
const (
	layerOp     = iota // one generator operation (root span; id = sequence number)
	layerClient        // one RPC between nfsclient and the client proxy
	layerServer        // one RPC between the server proxy and the nfs3 server
	layerVFS           // one call into the backend vfs.FS
	numLayers
)

var layerNames = [numLayers]string{"op", "client-hop", "server-hop", "vfs"}

// span is one timed interval. Times are nanoseconds since the tracer
// was created.
type span struct {
	start, end int64
	name       uint16 // op kind, RPC procedure (mount procedures offset by mountProcBase) or vfs method
	op         int32  // sequence number of the generator op open at start; -1 = none
	out, in    uint32 // RPC spans: call and reply record bytes
}

const (
	mountProcBase = 100
	flushAllSpan  = 99 // a direct ClientProxy.FlushAll call, recorded in the client-hop layer
)

// tracer collects spans and counters. Recording is switched on for the
// timed phase only, so set-up, warm-up and audits leave no spans.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	curOp atomic.Int32

	mu    sync.Mutex
	spans [numLayers][]span

	wan wanCounters // the encrypted hop

	unanswered atomic.Int64 // calls whose reply never came
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.curOp.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(layer int, s span) {
	t.mu.Lock()
	t.spans[layer] = append(t.spans[layer], s)
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far, per layer.
func (t *tracer) snapshot() [numLayers][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [numLayers][]span
	for l := range t.spans {
		out[l] = append([]span(nil), t.spans[l]...)
	}
	return out
}

// beginOp opens the root span of generator operation seq; RPCs that
// start while it is open are attributed to it.
func (t *tracer) beginOp(seq int) int64 {
	t.curOp.Store(int32(seq))
	return t.now()
}

func (t *tracer) endOp(seq int, kind int, start int64) {
	end := t.now()
	t.curOp.Store(-1)
	if t.on.Load() {
		t.add(layerOp, span{start: start, end: end, name: uint16(kind), op: int32(seq)})
	}
}

// interval is a half-open time range.
type interval struct{ start, end int64 }

func intervalsOf(spans []span) []interval {
	out := make([]interval, len(spans))
	for i, s := range spans {
		out[i] = interval{s.start, s.end}
	}
	return out
}

// union merges overlapping intervals; the result is sorted and
// disjoint. The input is not modified.
func union(in []interval) []interval {
	if len(in) == 0 {
		return nil
	}
	s := append([]interval(nil), in...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	out := s[:1]
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.start <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// total is the summed length of disjoint intervals.
func total(u []interval) int64 {
	var n int64
	for _, iv := range u {
		n += iv.end - iv.start
	}
	return n
}

// overlap is the length of the intersection of two sorted disjoint
// interval lists (as returned by union).
func overlap(a, b []interval) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].start, a[i].end
		if b[j].start > lo {
			lo = b[j].start
		}
		if b[j].end < hi {
			hi = b[j].end
		}
		if hi > lo {
			n += hi - lo
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return n
}

// uncovered is the part of a that b does not cover: self time, when a
// is a set of spans and b their children. Both are sorted and disjoint
// (as returned by union); children may stick out of their parents.
func uncovered(a, b []interval) int64 { return total(a) - overlap(a, b) }

// maxOverlap is the largest number of intervals open at one instant.
func maxOverlap(in []interval) int {
	type edge struct {
		t int64
		d int
	}
	edges := make([]edge, 0, 2*len(in))
	for _, iv := range in {
		edges = append(edges, edge{iv.start, 1}, edge{iv.end, -1})
	}
	// Ends sort before starts at the same instant: touching spans do
	// not overlap.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.d
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// enclosing returns, for each child, the index of the parent that
// encloses it (latest start wins) or -1. parents is sorted by start.
func enclosing(parents []span, children []span) []int {
	out := make([]int, len(children))
	for ci, c := range children {
		out[ci] = -1
		// First parent starting after the child; candidates lie before it.
		hi := sort.Search(len(parents), func(i int) bool { return parents[i].start > c.start })
		for pi := hi - 1; pi >= 0 && pi >= hi-256; pi-- {
			if parents[pi].end >= c.end {
				out[ci] = pi
				break
			}
		}
	}
	return out
}

func spanName(layer int, name uint16) string {
	switch layer {
	case layerOp:
		return opKindNames[name]
	case layerVFS:
		return vfsMethodNames[name]
	}
	if name >= mountProcBase {
		return "MOUNT"
	}
	if name == flushAllSpan {
		return "FlushAll"
	}
	return nfs3.ProcName(uint32(name))
}

// traceLine is one span in the -trace-out file (JSON lines).
type traceLine struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // id of the enclosing span one layer out; -1 = none
	Op      int    `json:"op"`     // generator op sequence number (the request id); -1 = none
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Out     uint32 `json:"call_bytes,omitempty"`
	In      uint32 `json:"reply_bytes,omitempty"`
}

// writeTrace writes every span, outermost layer first, each layer
// sorted by start. A span's id is its index within its layer; parent
// refers to the layer above (ops for client-hop RPCs, the enclosing
// client-hop RPC for server-hop RPCs, the enclosing server-hop RPC for
// vfs calls).
func (t *tracer) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sorted := t.snapshot()
	for l := range sorted {
		s := sorted[l]
		sort.SliceStable(s, func(i, j int) bool { return s[i].start < s[j].start })
	}
	opIndex := make(map[int32]int, len(sorted[layerOp]))
	for i, s := range sorted[layerOp] {
		opIndex[s.op] = i
	}
	for l := range sorted {
		var parents []int
		if l > layerClient {
			parents = enclosing(sorted[l-1], sorted[l])
		}
		for i, s := range sorted[l] {
			line := traceLine{Layer: layerNames[l], Name: spanName(l, s.name), ID: i, Parent: -1,
				Op: int(s.op), StartNs: s.start, EndNs: s.end, Out: s.out, In: s.in}
			switch {
			case l == layerClient:
				if pi, ok := opIndex[s.op]; ok {
					line.Parent = pi
				}
			case l > layerClient:
				line.Parent = parents[i]
				if line.Parent >= 0 {
					line.Op = int(sorted[l-1][line.Parent].op)
					sorted[l][i].op = int32(line.Op) // lets the next layer inherit it
				}
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
