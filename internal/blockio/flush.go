package blockio

import (
	"context"
	"errors"
	"sync"

	"repro/internal/nfs3"
	"repro/internal/singleflight"
)

// Verifier is an NFSv3 write verifier: the server reports the same one
// on every WRITE and COMMIT since it last restarted.
type Verifier = [nfs3.WriteVerfSize]byte

// ErrGone is what Writer.WriteBlock returns for a block whose file is
// gone at the server (removed, or renamed over), and what Flush makes
// of a block no longer in its store: the block is neither failed nor
// durable.
var ErrGone = errors.New("blockio: block gone")

// Store is a block store as Flush drains it; a Cache and the client
// proxy's disk cache are both one. Every put gives a block a new
// version, and a dirty block stays dirty until FlushDone is told that
// the version now current was made durable.
type Store interface {
	// DirtyList returns fh's dirty blocks.
	DirtyList(fh nfs3.FH3) []uint64
	// ReadVersion returns block idx of fh and the version of the put
	// its bytes came from.
	ReadVersion(fh nfs3.FH3, idx uint64) (data []byte, ver uint64, ok bool)
	// FlushDone marks the block clean if ver is still its version.
	FlushDone(fh nfs3.FH3, idx, ver uint64)
}

// ClientFlushWidth is how many UNSTABLE writes the NFS clients' flushes
// keep in flight. Block writes are 32 KiB each, so the bound is far
// lower than the metadata gathers' (oncrpc.GatherDepth).
const ClientFlushWidth = 8

// Writer is what Flush's caller supplies: how one block reaches the
// server. An interface, not stored functions, for the reason Source is.
type Writer interface {
	// WriteBlock sends data, block idx of fh, to the server at the
	// given stability (nfs3.Unstable or nfs3.FileSync) and returns the
	// reply's committed level and write verifier. A block with nothing
	// to send reports nfs3.FileSync.
	WriteBlock(ctx context.Context, fh nfs3.FH3, idx uint64, data []byte, stable uint32) (committed uint32, verf Verifier, err error)
	// Commit sends COMMIT for the whole of fh and returns its verifier.
	Commit(ctx context.Context, fh nfs3.FH3) (Verifier, error)
}

// Flush is the one way a client sends dirty blocks to the server: it
// writes the dirty blocks of files in s back through w, keeping up to
// width UNSTABLE writes in flight across all files (serial FILE_SYNC
// writes would cost blocks × RTT over a WAN), and settles each file
// with one COMMIT, sent by whoever retires the file's last block.
//
// Flush reads each block and its version from s as it sends it, and
// calls s.FlushDone with that version only on a durable
// acknowledgement: a FILE_SYNC reply to its write, or a COMMIT whose
// verifier equals that of every UNSTABLE write of the file. Any
// disagreement means the server restarted in between and may have lost
// unstable data (RFC 1813 §3.3.7), so every UNSTABLE-written block of
// the file is re-sent FILE_SYNC first. A file with a failed write gets
// no COMMIT, and none of its UNSTABLE-written blocks is reported: they
// have no durability guarantee and stay dirty for the next flush. Flush
// returns the number of files that hit a verifier disagreement, and the
// first error.
func Flush(ctx context.Context, width int, s Store, files []nfs3.FH3, w Writer) (mismatches int, err error) {
	type job struct {
		f   *flushFile
		idx uint64
	}
	var jobs []job
	for _, fh := range files {
		blocks := s.DirtyList(fh)
		f := &flushFile{fh: fh, pending: len(blocks)}
		for _, idx := range blocks {
			jobs = append(jobs, job{f, idx})
		}
	}
	r := &flushRun{ctx: ctx, s: s, w: w}
	singleflight.Each(len(jobs), width, func(i int) { r.block(jobs[i].f, jobs[i].idx) })
	return r.mismatches, r.err
}

// flushRun is the shared state of one Flush.
type flushRun struct {
	ctx context.Context
	s   Store
	w   Writer

	mu         sync.Mutex
	err        error
	mismatches int
}

func (r *flushRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// flushFile tracks one file's progress through a flush.
type flushFile struct {
	fh nfs3.FH3

	mu       sync.Mutex
	pending  int       // blocks not yet attempted
	failed   bool      // a write failed: no COMMIT
	written  []version // blocks acknowledged UNSTABLE, awaiting COMMIT
	verf     Verifier  // of the first UNSTABLE write
	mismatch bool      // a later write's verifier differed
}

// version is a block as one write sent it.
type version struct{ idx, ver uint64 }

// write sends block idx of fh as s holds it now, and returns the
// version it sent.
func (r *flushRun) write(fh nfs3.FH3, idx uint64, stable uint32) (uint32, Verifier, uint64, error) {
	data, ver, ok := r.s.ReadVersion(fh, idx)
	if !ok {
		return 0, Verifier{}, 0, ErrGone
	}
	committed, verf, err := r.w.WriteBlock(r.ctx, fh, idx, data, stable)
	return committed, verf, ver, err
}

// block pushes one dirty block as an UNSTABLE write and retires it.
func (r *flushRun) block(f *flushFile, idx uint64) {
	committed, verf, ver, err := r.write(f.fh, idx, nfs3.Unstable)
	unstable := false
	switch {
	case errors.Is(err, ErrGone):
		err = nil
	case err != nil:
		r.fail(err)
	case committed == nfs3.FileSync:
		r.s.FlushDone(f.fh, idx, ver)
	default:
		unstable = true
	}
	f.mu.Lock()
	if unstable {
		if len(f.written) == 0 {
			f.verf = verf
		} else if verf != f.verf {
			f.mismatch = true
		}
		f.written = append(f.written, version{idx, ver})
	}
	f.failed = f.failed || err != nil
	f.pending--
	settle := f.pending == 0 && !f.failed && len(f.written) > 0
	written, wverf, mismatch := f.written, f.verf, f.mismatch
	f.mu.Unlock()
	if settle {
		r.commit(f.fh, written, wverf, mismatch)
	}
}

// commit settles a file's UNSTABLE writes with one COMMIT, re-sending
// each FILE_SYNC first when the verifiers disagree.
func (r *flushRun) commit(fh nfs3.FH3, written []version, verf Verifier, mismatch bool) {
	cverf, err := r.w.Commit(r.ctx, fh)
	if err != nil {
		r.fail(err)
		return
	}
	resend := mismatch || cverf != verf
	if resend {
		r.mu.Lock()
		r.mismatches++
		r.mu.Unlock()
	}
	for _, b := range written {
		ver := b.ver
		if resend {
			if _, _, ver, err = r.write(fh, b.idx, nfs3.FileSync); err != nil {
				if !errors.Is(err, ErrGone) {
					r.fail(err)
				}
				continue
			}
		}
		r.s.FlushDone(fh, b.idx, ver)
	}
}
