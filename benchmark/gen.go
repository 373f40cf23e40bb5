package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Everything a workload does is a pure function of its seed: the
// generators below use no map iteration, no wall-clock input and no
// global randomness, so the same -seed replays the same op list and
// the same bytes (pinned by the golden test in gen_test.go).

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// contentKey derives the per-file content key from (seed, path).
func contentKey(seed uint64, path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	r := rng{s: seed ^ h.Sum64()}
	return r.next()
}

// contentWord is the 8-byte word at word index w of a file: file
// content is a function of (seed, path, offset) and nothing else, so
// any reader can check any byte without having seen the write.
func contentWord(key, w uint64) uint64 {
	x := key + w*0x9E3779B97F4A7C15
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	return x ^ x>>29
}

// fillContent writes the file's bytes [off, off+len(buf)) into buf.
// off and len(buf) are multiples of 8 everywhere in this benchmark.
func fillContent(buf []byte, key uint64, off int64) {
	w := uint64(off) / 8
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], contentWord(key, w))
		w++
	}
}

// checkContent compares every stride-th word of buf (and always the
// last one) against the model and returns the number of mismatches.
// stride 1 is a full comparison; timed reads sample.
func checkContent(buf []byte, key uint64, off int64, stride int) int {
	bad := 0
	w0 := uint64(off) / 8
	n := len(buf) / 8
	for i := 0; i < n; i += stride {
		if binary.LittleEndian.Uint64(buf[i*8:]) != contentWord(key, w0+uint64(i)) {
			bad++
		}
	}
	if n > 0 && (n-1)%stride != 0 {
		if binary.LittleEndian.Uint64(buf[(n-1)*8:]) != contentWord(key, w0+uint64(n-1)) {
			bad++
		}
	}
	return bad
}

// Small-file (PostMark-shaped) transaction kinds. One round holds one
// of each.
const (
	txCreate  = iota // create + write + close
	txRemove         // remove
	txRead           // access + open + read + close
	txAppend         // access + open + append + close
	txListDir        // ReadDirStat of one directory
	roundSize        // transactions per round
)

var txNames = [...]string{"create", "remove", "read", "append", "listdir"}

// smallOp is one generated transaction. Size is the bytes created or
// appended (create/append), the file's size (read) or the number of
// entries the directory holds (listdir); Off is where an append starts.
type smallOp struct {
	Kind int
	Dir  int
	File int // file id; names are never reused
	Off  int
	Size int
}

func (o smallOp) String() string {
	return fmt.Sprintf("%s d%02d/f%06d %d+%d", txNames[o.Kind], o.Dir, o.File, o.Off, o.Size)
}

// smallFile is one live file of the model.
type smallFile struct {
	id, dir, size int
}

// smallGen generates the transaction stream and is the model the
// audits compare the server's state against. Transactions come in
// rounds holding each of the five kinds once, in shuffled order, and a
// round is the workload's operation: every latency sample is the same
// amount of work whatever the seed, and only order, targets and sizes
// vary. With independent draws the 40 ms workload's few hundred
// transactions would differ by seed more than the regression bound, and
// with single transactions as samples the median would sit on the
// boundary between two kinds.
type smallGen struct {
	r       rng
	root    string // the tree the transactions run in
	dirs    int
	live    []smallFile
	removed []smallFile // every file removed so far, for the absence audit
	nextID  int
}

// smallSize draws a file or append size: 512 B to 16 KiB, 8-aligned.
func (g *smallGen) smallSize() int { return 8 * (64 + g.r.intn(1985)) }

// newSmallGen returns a generator whose initial pool of files (the
// ones set-up preloads; at least two) is already in the model. A round
// creates and removes one file, so the pool never drains.
func newSmallGen(seed uint64, root string, dirs, files int) *smallGen {
	g := &smallGen{r: rng{s: seed}, root: root, dirs: dirs}
	for i := 0; i < files; i++ {
		g.live = append(g.live, smallFile{id: g.nextID, dir: g.r.intn(dirs), size: g.smallSize()})
		g.nextID++
	}
	return g
}

func (g *smallGen) dirPath(dir int) string { return fmt.Sprintf("%s/d%02d", g.root, dir) }

func (g *smallGen) path(dir, id int) string { return fmt.Sprintf("%s/d%02d/f%06d", g.root, dir, id) }

// nextRound returns the next round of transactions and applies them to
// the model.
func (g *smallGen) nextRound() [roundSize]smallOp {
	kinds := [roundSize]int{txCreate, txRemove, txRead, txAppend, txListDir}
	for i := roundSize - 1; i > 0; i-- {
		j := g.r.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	var round [roundSize]smallOp
	for i, kind := range kinds {
		round[i] = g.next(kind)
	}
	return round
}

func (g *smallGen) next(kind int) smallOp {
	switch kind {
	case txCreate:
		f := smallFile{id: g.nextID, dir: g.r.intn(g.dirs), size: g.smallSize()}
		g.nextID++
		g.live = append(g.live, f)
		return smallOp{Kind: txCreate, Dir: f.dir, File: f.id, Size: f.size}
	case txRemove:
		i := g.r.intn(len(g.live))
		f := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		g.removed = append(g.removed, f)
		return smallOp{Kind: txRemove, Dir: f.dir, File: f.id}
	case txRead:
		f := g.live[g.r.intn(len(g.live))]
		return smallOp{Kind: txRead, Dir: f.dir, File: f.id, Size: f.size}
	case txListDir:
		dir, entries := g.r.intn(g.dirs), 0
		for _, f := range g.live {
			if f.dir == dir {
				entries++
			}
		}
		return smallOp{Kind: txListDir, Dir: dir, Size: entries}
	default:
		i := g.r.intn(len(g.live))
		n := 8 * (64 + g.r.intn(449)) // 512 B to 4 KiB
		f := g.live[i]
		g.live[i].size += n
		return smallOp{Kind: txAppend, Dir: f.dir, File: f.id, Off: f.size, Size: n}
	}
}
