package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/nfsclient"
	"repro/internal/vfs"
)

// Every workload is one closed loop: one generator goroutine, one
// mount, and the next operation is issued when the previous returns.
// The timed phase runs whole operations until its time budget is
// spent, so every reported number is a rate, a ratio or a percentile,
// never a count that depends on how far the run got.

// scale holds every size a workload uses. The command always runs
// frozenScale; tests pass a toy one. There is no scale flag, so every
// committed number is at the one frozen scale.
type scale struct {
	rtt      time.Duration // the WAN workloads' round-trip time
	lanPages int64         // nfsclient page cache, LAN workloads
	wanPages int64         // nfsclient page cache, WAN workloads

	seqFile   int64 // seqread-lan: file size, many times the page cache
	writeFile int64 // seqwrite-lan: size of each file written
	coldFile  int64 // coldread-wan: size of each file
	coldFiles int   // coldread-wan: files read in turn, together many times the page cache
	warmFile  int64 // reread-wan: file size, a few times the page cache
	flushFile int64 // writeback-wan: size of each file written and flushed
	extent    int64 // bytes per operation on seqread-lan

	lanDirs, lanFiles, lanWarm int // smallfile-lan: directories, file pool, untimed warm-up rounds
	wanDirs, wanFiles, wanWarm int // smallfile-wan
}

// frozenScale was sized once on the seed commit so that a 10 s timed
// phase holds at least 15 operations on the slowest workloads, and is not to be edited by a change that claims a gain.
var frozenScale = scale{
	rtt:      40 * time.Millisecond,
	lanPages: 8 << 20,
	wanPages: 2 << 20,

	seqFile:   64 << 20,
	writeFile: 16 << 20,
	coldFile:  1 << 20,
	coldFiles: 16,
	warmFile:  8 << 20,
	flushFile: 2 << 20,
	extent:    1 << 20,

	lanDirs: 50, lanFiles: 2000, lanWarm: 10,
	wanDirs: 10, wanFiles: 60, wanWarm: 1,
}

// Operation kinds (root span names).
const (
	opRound       = iota // one round of small-file transactions, one of each kind
	opExtentRead         // one extent read in 32 KiB records
	opFileRead           // open + whole file read in 32 KiB records + close
	opFileWrite          // create + write in 32 KiB records + close
	opFileFlushed        // the same, then ClientProxy.FlushAll
)

var opKindNames = [...]string{"round", "extent-read", "file-read", "file-write", "file-write-flush"}

// workload describes one benchmark workload.
type workload struct {
	name string
	why  string // one line: which layers it loads and which it leaves idle
	op   string // what one operation (one latency sample) is
	cfg  func(sc scale) stackConfig
	// setup preloads the backend and warms the stack up; it is timed as
	// part of setup_s.
	setup func(ctx context.Context, e *env) error
	// run is the timed phase: it issues operations through p until p
	// has expired.
	run func(ctx context.Context, e *env, p *phase)
	// finish, optional, runs untimed after the timed phase: the final
	// write-back and the audit of the backend against the model.
	finish func(ctx context.Context, e *env, p *phase)
}

var workloads = []workload{
	{
		name:  "seqread-lan",
		why:   "IOzone read, file 8x the page cache, RTT 0: CPU-bound, so xdr, oncrpc, securechan and the proxies' copy path do the work; disk cache, ACL and link idle",
		op:    "1 MiB extent read in 32 KiB records",
		cfg:   func(sc scale) stackConfig { return stackConfig{pageCache: sc.lanPages} },
		setup: func(ctx context.Context, e *env) error { return e.setupRead(ctx, e.sc.seqFile, false) },
		run:   func(ctx context.Context, e *env, p *phase) { e.runRead(ctx, p, e.sc.seqFile, e.sc.extent) },
	},
	{
		name:  "seqwrite-lan",
		why:   "IOzone write, RTT 0: the same layers as seqread-lan in the other direction (WRITE decode, server-side write), so a read-path gain that costs writes shows; backend-heavy at the seed",
		op:    "one 16 MiB file created, written in 32 KiB records and closed (write-behind flush + COMMIT)",
		cfg:   func(sc scale) stackConfig { return stackConfig{pageCache: sc.lanPages} },
		setup: func(ctx context.Context, e *env) error { return e.warmWrite(ctx, false) },
		run: func(ctx context.Context, e *env, p *phase) {
			e.runWrite(ctx, p, e.sc.writeFile, false)
		},
	},
	{
		name: "smallfile-lan",
		why:  "PostMark, RTT 0, no disk cache: smallest messages, so per-RPC cost dominates (oncrpc call path, small securechan records, ACL resolution); payload copying is negligible",
		op:   "one round of five transactions: create+write+close, remove, access+open+read+close, access+open+append+close, ReadDirStat",
		cfg:  func(sc scale) stackConfig { return stackConfig{pageCache: sc.lanPages} },
		setup: func(ctx context.Context, e *env) error {
			return e.setupSmall(ctx, e.sc.lanDirs, e.sc.lanFiles, e.sc.lanWarm)
		},
		run:    func(ctx context.Context, e *env, p *phase) { e.runSmall(ctx, p) },
		finish: func(ctx context.Context, e *env, p *phase) { e.auditSmall(ctx, p) },
	},
	{
		name: "smallfile-wan",
		why:  "PostMark at 40 ms RTT with disk cache and write-back: round trips dominate and CPU layers barely register, so only fewer or overlapped RPCs can move it",
		op:   "one round of five transactions, as smallfile-lan",
		cfg: func(sc scale) stackConfig {
			return stackConfig{rtt: sc.rtt, diskCache: true, pageCache: sc.wanPages}
		},
		setup: func(ctx context.Context, e *env) error {
			return e.setupSmall(ctx, e.sc.wanDirs, e.sc.wanFiles, e.sc.wanWarm)
		},
		run:    func(ctx context.Context, e *env, p *phase) { e.runSmall(ctx, p) },
		finish: func(ctx context.Context, e *env, p *phase) { e.auditSmall(ctx, p) },
	},
	{
		name: "coldread-wan",
		why:  "Seismic input read at 40 ms RTT, nothing cached: readahead and pipelining depth in the client proxy set the rate; the disk cache only absorbs misses",
		op:   "one 1 MiB file opened, read in 32 KiB records and closed, then dropped from the disk cache",
		cfg: func(sc scale) stackConfig {
			return stackConfig{rtt: sc.rtt, diskCache: true, pageCache: sc.wanPages}
		},
		setup: func(ctx context.Context, e *env) error { return e.setupCold(ctx) },
		run:   func(ctx context.Context, e *env, p *phase) { e.runCold(ctx, p) },
	},
	{
		name: "reread-wan",
		why:  "Seismic re-read: same stack as coldread-wan but every block is in the disk cache, so the WAN carries one LOOKUP per file and cache.GetBlock and the client proxy's copy path do the rest",
		op:   "one 8 MiB file opened, read in 32 KiB records from the disk cache and closed",
		cfg: func(sc scale) stackConfig {
			return stackConfig{rtt: sc.rtt, diskCache: true, pageCache: sc.wanPages}
		},
		setup: func(ctx context.Context, e *env) error { return e.setupRead(ctx, e.sc.warmFile, true) },
		run:   func(ctx context.Context, e *env, p *phase) { e.runReread(ctx, p, e.sc.warmFile) },
	},
	{
		name: "writeback-wan",
		why:  "Seismic output at 40 ms RTT: writes land in the disk cache, then FlushAll drains them, so the flush worker pool and COMMIT handling set the rate",
		op:   "one 2 MiB file created, written, closed and drained with ClientProxy.FlushAll",
		cfg: func(sc scale) stackConfig {
			return stackConfig{rtt: sc.rtt, diskCache: true, pageCache: sc.wanPages}
		},
		setup: func(ctx context.Context, e *env) error { return e.warmWrite(ctx, true) },
		run: func(ctx context.Context, e *env, p *phase) {
			e.runWrite(ctx, p, e.sc.flushFile, true)
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is what a workload's functions share.
type env struct {
	st   *stack
	seed uint64
	sc   scale
	gen  *smallGen // small-file workloads: the generator and model
	file *nfsclient.File
	buf  []byte
}

// phase runs and measures the timed phase.
type phase struct {
	tr     *tracer // nil when untraced
	budget time.Duration

	began       time.Time
	cpuBegan    time.Duration
	paused      time.Duration // wall time spent in untimed sections
	cpuPaused   time.Duration
	elapsed     time.Duration // set by end
	cpu         time.Duration
	flush       time.Duration // time inside FlushAll
	seq         int
	ops         int
	bytes       int64
	lat         []float64 // per-operation latency, ms; sorted once the phase has ended
	rate        float64   // quietRate of lat, set once the phase has ended
	attempted   int       // operations issued plus audit checks made
	failed      int       // operations that returned an error or failed verification, plus failed checks
	firstErrors []string
}

func processCPU() time.Duration {
	u, s := metrics.ProcessCPU()
	return u + s
}

func (p *phase) begin() {
	if p.tr != nil {
		p.tr.on.Store(true)
	}
	p.cpuBegan = processCPU()
	p.began = time.Now()
}

func (p *phase) active() time.Duration { return time.Since(p.began) - p.paused }

func (p *phase) expired() bool { return p.active() >= p.budget }

func (p *phase) end() {
	p.elapsed = p.active()
	p.cpu = processCPU() - p.cpuBegan - p.cpuPaused
	if p.tr != nil {
		p.tr.on.Store(false)
	}
}

// untimed runs f with the clocks (wall, CPU, tracing) stopped: audits
// and cache resets between operations are not part of the workload.
func (p *phase) untimed(f func()) {
	t0, c0 := time.Now(), processCPU()
	if p.tr != nil {
		p.tr.on.Store(false)
	}
	f()
	if p.tr != nil {
		p.tr.on.Store(true)
	}
	p.cpuPaused += processCPU() - c0
	p.paused += time.Since(t0)
}

// op runs one operation, records its latency and counts it failed if
// it returns an error.
func (p *phase) op(kind int, bytes int64, f func() error) {
	p.seq++
	var err error
	var d time.Duration
	if p.tr != nil {
		start := p.tr.beginOp(p.seq)
		err = f()
		d = time.Duration(p.tr.now() - start)
		p.tr.endOp(p.seq, kind, start)
	} else {
		t0 := time.Now()
		err = f()
		d = time.Since(t0)
	}
	p.lat = append(p.lat, float64(d)/float64(time.Millisecond))
	p.ops++
	p.bytes += bytes
	p.check(err)
}

// flushAll drains the client proxy's write-back cache. The call goes
// straight to the proxy, not through an RPC, so the traced run records
// it as a client-hop span of its own: the time belongs to the layers
// below nfsclient.
func (p *phase) flushAll(ctx context.Context, st *stack) error {
	t0 := time.Now()
	var start int64
	if p.tr != nil {
		start = p.tr.now()
	}
	err := st.cp.FlushAll(ctx)
	if p.tr != nil {
		p.tr.add(layerClient, span{start: start, end: p.tr.now(), name: flushAllSpan, op: int32(p.seq)})
	}
	p.flush += time.Since(t0)
	return err
}

// check counts one attempt and, if err is non-nil, one failure.
func (p *phase) check(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.firstErrors) < 5 {
			p.firstErrors = append(p.firstErrors, err.Error())
		}
	}
}

func (p *phase) checkAudit(problem string) {
	var err error
	if problem != "" {
		err = errors.New("audit: " + problem)
	}
	p.check(err)
}

const (
	bulkPath = workRoot + "/bulk.dat"
	warmPath = workRoot + "/warm.dat"
)

// readRecords reads [off, off+n) of path through f in 32 KiB records
// and checks sampled words of every record against the model.
func (e *env) readRecords(ctx context.Context, f *nfsclient.File, key uint64, off, n int64) error {
	for end := off + n; off < end; off += blockSize {
		want := int64(blockSize)
		if end-off < want {
			want = end - off
		}
		got, err := f.ReadAt(ctx, e.buf[:want], off)
		if err != nil && !(err == io.EOF && int64(got) == want) {
			return fmt.Errorf("read at %d: %w", off, err)
		}
		if int64(got) != want {
			return fmt.Errorf("read at %d: %d of %d bytes", off, got, want)
		}
		if bad := checkContent(e.buf[:want], key, off, 509); bad > 0 {
			return fmt.Errorf("read at %d: %d sampled words differ from the model", off, bad)
		}
	}
	return nil
}

// writeRecords writes the model content of [0, size) to f in 32 KiB
// records.
func (e *env) writeRecords(ctx context.Context, f *nfsclient.File, key uint64, size int64) error {
	for off := int64(0); off < size; off += blockSize {
		n := int64(blockSize)
		if size-off < n {
			n = size - off
		}
		fillContent(e.buf[:n], key, off)
		if _, err := f.WriteAt(ctx, e.buf[:n], off); err != nil {
			return fmt.Errorf("write at %d: %w", off, err)
		}
	}
	return nil
}

// warmRead is the read workloads' warm-up: one small file preloaded
// into the backend and read through the whole stack.
func (e *env) warmRead(ctx context.Context) error {
	if err := e.st.preload(e.seed, warmPath, 1<<20); err != nil {
		return err
	}
	wf, err := e.st.fs.Open(ctx, warmPath)
	if err != nil {
		return err
	}
	if err := e.readRecords(ctx, wf, contentKey(e.seed, warmPath), 0, 1<<20); err != nil {
		return err
	}
	return wf.Close(ctx)
}

// setupRead preloads the bulk file straight into the backend, warms
// the read path up and leaves the bulk file open. With fill, it also
// reads the bulk file once through the stack with the link delay off,
// so the disk cache holds every block.
func (e *env) setupRead(ctx context.Context, size int64, fill bool) error {
	if err := e.st.preload(e.seed, bulkPath, size); err != nil {
		return err
	}
	err := e.warmRead(ctx)
	if err != nil {
		return err
	}
	if e.file, err = e.st.fs.Open(ctx, bulkPath); err != nil {
		return err
	}
	if fill {
		e.st.link.setRTT(0)
		err = e.readRecords(ctx, e.file, contentKey(e.seed, bulkPath), 0, size)
		e.st.link.setRTT(e.sc.rtt)
	}
	return err
}

// runReread opens, reads and closes the bulk file once per operation.
// The open's LOOKUP is the one round trip an application re-reading a
// cached file pays; with it in every sample the processor's share of an
// operation is about a third, so a busy host moves this workload less
// than the CPU-bound LAN ones.
func (e *env) runReread(ctx context.Context, p *phase, size int64) {
	key := contentKey(e.seed, bulkPath)
	for !p.expired() {
		p.op(opFileRead, size, func() error {
			f, err := e.st.fs.Open(ctx, bulkPath)
			if err != nil {
				return err
			}
			if err := e.readRecords(ctx, f, key, 0, size); err != nil {
				return err
			}
			return f.Close(ctx)
		})
	}
}

// runRead reads the open bulk file sequentially, pass after pass, one
// extent per operation.
func (e *env) runRead(ctx context.Context, p *phase, size, extent int64) {
	key := contentKey(e.seed, bulkPath)
	for !p.expired() {
		for off := int64(0); off < size && !p.expired(); off += extent {
			off := off
			p.op(opExtentRead, extent, func() error { return e.readRecords(ctx, e.file, key, off, extent) })
		}
	}
}

func coldPath(i int) string { return fmt.Sprintf("%s/cold%02d.dat", workRoot, i) }

// setupCold preloads the files coldread-wan reads straight into the
// backend and warms the read path up.
func (e *env) setupCold(ctx context.Context) error {
	for i := 0; i < e.sc.coldFiles; i++ {
		if err := e.st.preload(e.seed, coldPath(i), e.sc.coldFile); err != nil {
			return err
		}
	}
	return e.warmRead(ctx)
}

// runCold opens, reads and closes one file per operation, taking the
// files in turn. The files together are many times the page cache and
// each is dropped from the disk cache (untimed) once read, so every
// operation is cold at every level and starts from the same readahead
// state. Timed extent by extent in one long file, the client proxy's
// readahead settles, for the rest of the pass, into whichever of two
// patterns (2 or 2.5 blocks per round trip) a chance delay knocks it
// into, and a run's median extent was either 126 or 167 ms.
func (e *env) runCold(ctx context.Context, p *phase) {
	for i := 0; !p.expired(); i++ {
		path := coldPath(i % e.sc.coldFiles)
		var f *nfsclient.File
		p.op(opFileRead, e.sc.coldFile, func() (err error) {
			if f, err = e.st.fs.Open(ctx, path); err != nil {
				return err
			}
			if err := e.readRecords(ctx, f, contentKey(e.seed, path), 0, e.sc.coldFile); err != nil {
				return err
			}
			return f.Close(ctx)
		})
		if f != nil {
			p.untimed(func() { e.st.dc.DropFile(f.Handle()) })
		}
	}
}

// warmWrite is the write workloads' warm-up: one small file through
// the whole write path (and FlushAll when write-back is on).
func (e *env) warmWrite(ctx context.Context, flush bool) error {
	if err := e.writeFile(ctx, warmPath, 256<<10); err != nil {
		return err
	}
	if flush {
		return e.st.cp.FlushAll(ctx)
	}
	return nil
}

func (e *env) writeFile(ctx context.Context, path string, size int64) error {
	f, err := e.st.fs.Create(ctx, path, 0644)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if err := e.writeRecords(ctx, f, contentKey(e.seed, path), size); err != nil {
		return err
	}
	return f.Close(ctx)
}

// runWrite writes one fresh file per operation. After each, untimed,
// the file is compared byte for byte with the model in the backend and
// removed there, so the backend's heap stays level across the run and
// no untimed RPC touches the stack's counters.
func (e *env) runWrite(ctx context.Context, p *phase, size int64, flush bool) {
	kind := opFileWrite
	if flush {
		kind = opFileFlushed
	}
	for n := 0; !p.expired(); n++ {
		path := fmt.Sprintf("%s/out%05d.dat", workRoot, n)
		p.op(kind, size, func() error {
			if err := e.writeFile(ctx, path, size); err != nil {
				return err
			}
			if !flush {
				return nil
			}
			return p.flushAll(ctx, e.st)
		})
		p.untimed(func() {
			p.checkAudit(e.st.auditFile(e.seed, path, size))
			p.check(e.st.backendRemove(path))
		})
	}
}

// setupSmall preloads the directory tree and the initial file pool
// into the backend and runs a few untimed transactions in a scratch
// tree.
func (e *env) setupSmall(ctx context.Context, dirs, files, warmRounds int) error {
	e.gen = newSmallGen(e.seed, workRoot, dirs, files)
	warm := newSmallGen(e.seed^0x5eed, workRoot+"/warm", 2, 8)
	for _, g := range []*smallGen{e.gen, warm} {
		for d := 0; d < g.dirs; d++ {
			if _, err := e.st.backendDir(g.dirPath(d)); err != nil {
				return err
			}
		}
		for _, f := range g.live {
			if err := e.st.preload(e.seed, g.path(f.dir, f.id), int64(f.size)); err != nil {
				return err
			}
		}
	}
	for i := 0; i < warmRounds; i++ {
		if _, err := e.doRound(ctx, warm); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (e *env) runSmall(ctx context.Context, p *phase) {
	for !p.expired() {
		p.op(opRound, 0, func() error {
			n, err := e.doRound(ctx, e.gen)
			p.bytes += n
			return err
		})
	}
}

// doRound executes the generator's next round and returns the payload
// bytes it moved. The whole round runs even if a transaction fails, so
// the model and the server stay in step.
func (e *env) doRound(ctx context.Context, g *smallGen) (int64, error) {
	var bytes int64
	var errs []error
	for _, op := range g.nextRound() {
		n, err := e.doSmall(ctx, g, op)
		bytes += n
		errs = append(errs, err)
	}
	return bytes, errors.Join(errs...)
}

// doSmall executes one transaction and returns the payload bytes it
// moved. The explicit Access stands in for the kernel client's
// ACCESS-on-open, so the server proxy's ACL path runs.
func (e *env) doSmall(ctx context.Context, g *smallGen, op smallOp) (int64, error) {
	fs := e.st.fs
	path := g.path(op.Dir, op.File)
	key := contentKey(e.seed, path)
	access := func(mask uint32) error {
		granted, err := fs.Access(ctx, path, mask)
		if err == nil && granted&mask != mask {
			err = fmt.Errorf("granted %#x of %#x", granted, mask)
		}
		if err != nil {
			return fmt.Errorf("access %s: %w", path, err)
		}
		return nil
	}
	switch op.Kind {
	case txCreate:
		f, err := fs.Create(ctx, path, 0644)
		if err != nil {
			return 0, fmt.Errorf("create %s: %w", path, err)
		}
		if err := e.writeRecords(ctx, f, key, int64(op.Size)); err != nil {
			return 0, err
		}
		return int64(op.Size), f.Close(ctx)
	case txRemove:
		return 0, fs.Remove(ctx, path)
	case txRead:
		if err := access(vfs.AccessRead); err != nil {
			return 0, err
		}
		f, err := fs.Open(ctx, path)
		if err != nil {
			return 0, fmt.Errorf("open %s: %w", path, err)
		}
		buf := e.buf[:op.Size]
		n, err := f.ReadAt(ctx, buf, 0)
		if err != nil && err != io.EOF {
			return 0, fmt.Errorf("read %s: %w", path, err)
		}
		if n != op.Size {
			return 0, fmt.Errorf("read %s: %d bytes, model says %d", path, n, op.Size)
		}
		if bad := checkContent(buf, key, 0, 1); bad > 0 {
			return 0, fmt.Errorf("read %s: %d words differ from the model", path, bad)
		}
		return int64(op.Size), f.Close(ctx)
	case txAppend:
		if err := access(vfs.AccessModify | vfs.AccessExtend); err != nil {
			return 0, err
		}
		f, err := fs.OpenFile(ctx, path, nfsclient.OWrite, 0)
		if err != nil {
			return 0, fmt.Errorf("open %s: %w", path, err)
		}
		buf := e.buf[:op.Size]
		fillContent(buf, key, int64(op.Off))
		if _, err := f.WriteAt(ctx, buf, int64(op.Off)); err != nil {
			return 0, fmt.Errorf("append %s: %w", path, err)
		}
		return int64(op.Size), f.Close(ctx)
	default: // txListDir
		entries, err := fs.ReadDirStat(ctx, g.dirPath(op.Dir))
		if err != nil {
			return 0, fmt.Errorf("readdir %s: %w", g.dirPath(op.Dir), err)
		}
		if len(entries) != op.Size {
			return 0, fmt.Errorf("readdir %s: %d entries, model says %d", g.dirPath(op.Dir), len(entries), op.Size)
		}
		return 0, nil
	}
}

// auditSmall drains the write-back cache, then compares every live
// file byte for byte with the model, and checks every removed file is
// gone, by reading the backend directly.
func (e *env) auditSmall(ctx context.Context, p *phase) {
	if e.st.dc != nil {
		p.check(e.st.cp.FlushAll(ctx))
	}
	for _, f := range e.gen.live {
		p.checkAudit(e.st.auditFile(e.seed, e.gen.path(f.dir, f.id), int64(f.size)))
	}
	for _, f := range e.gen.removed {
		p.checkAudit(e.st.auditAbsent(e.gen.path(f.dir, f.id)))
	}
}
