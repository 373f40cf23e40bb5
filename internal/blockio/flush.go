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

// ErrGone is what Writer.WriteBlock returns for a block that no longer
// exists locally (its file was removed between listing and flushing):
// the block is neither failed nor durable.
var ErrGone = errors.New("blockio: block gone")

// Writer is what Flush's caller supplies: how one block reaches the
// server. An interface, not stored functions, for the reason Source is.
type Writer interface {
	// WriteBlock sends block idx of fh to the server at the given
	// stability (nfs3.Unstable or nfs3.FileSync) and returns the
	// reply's committed level and write verifier. A block with nothing
	// to send reports nfs3.FileSync.
	WriteBlock(ctx context.Context, fh nfs3.FH3, idx uint64, stable uint32) (committed uint32, verf Verifier, err error)
	// Commit sends COMMIT for the whole of fh and returns its verifier.
	Commit(ctx context.Context, fh nfs3.FH3) (Verifier, error)
	// Durable reports that block idx of fh, as this flush wrote it, is
	// on stable storage at the server. Only then may it be marked clean.
	Durable(fh nfs3.FH3, idx uint64)
}

// FileBlocks names the dirty blocks of one file.
type FileBlocks struct {
	FH     nfs3.FH3
	Blocks []uint64
}

// Flush writes every listed block back through w, keeping up to width
// UNSTABLE writes in flight across all files (serial FILE_SYNC writes
// would cost blocks × RTT over a WAN), and settles each file with one
// COMMIT, sent by whoever retires the file's last block.
//
// A block is reported Durable only on a durable acknowledgement: a
// FILE_SYNC reply to its write, or a COMMIT whose verifier equals that
// of every UNSTABLE write of the file. Any disagreement means the
// server restarted in between and may have lost unstable data (RFC 1813
// §3.3.7), so every UNSTABLE-written block of the file is re-sent
// FILE_SYNC first. A file with a failed write gets no COMMIT, and none
// of its UNSTABLE-written blocks is reported: they have no durability
// guarantee. Flush returns the number of files that hit a verifier
// disagreement, and the first error.
func Flush(ctx context.Context, width int, files []FileBlocks, w Writer) (mismatches int, err error) {
	type job struct {
		f   *flushFile
		idx uint64
	}
	var jobs []job
	for _, fb := range files {
		f := &flushFile{fh: fb.FH, pending: len(fb.Blocks)}
		for _, idx := range fb.Blocks {
			jobs = append(jobs, job{f, idx})
		}
	}
	r := &flushRun{ctx: ctx, w: w}
	singleflight.Each(len(jobs), width, func(i int) { r.block(jobs[i].f, jobs[i].idx) })
	return r.mismatches, r.err
}

// flushRun is the shared state of one Flush.
type flushRun struct {
	ctx context.Context
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
	pending  int      // blocks not yet attempted
	failed   bool     // a write failed: no COMMIT
	written  []uint64 // blocks acknowledged UNSTABLE, awaiting COMMIT
	verf     Verifier // of the first UNSTABLE write
	mismatch bool     // a later write's verifier differed
}

// block pushes one dirty block as an UNSTABLE write and retires it.
func (r *flushRun) block(f *flushFile, idx uint64) {
	committed, verf, err := r.w.WriteBlock(r.ctx, f.fh, idx, nfs3.Unstable)
	unstable := false
	switch {
	case errors.Is(err, ErrGone):
		err = nil
	case err != nil:
		r.fail(err)
	case committed == nfs3.FileSync:
		r.w.Durable(f.fh, idx)
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
		f.written = append(f.written, idx)
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
func (r *flushRun) commit(fh nfs3.FH3, written []uint64, verf Verifier, mismatch bool) {
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
	for _, idx := range written {
		if resend {
			if _, _, err := r.w.WriteBlock(r.ctx, fh, idx, nfs3.FileSync); err != nil {
				if !errors.Is(err, ErrGone) {
					r.fail(err)
				}
				continue
			}
		}
		r.w.Durable(fh, idx)
	}
}
