package oncrpc

import (
	"sync"

	"repro/internal/xdr"
)

// Buffer pooling for the RPC hot path. Every call used to allocate an
// encode buffer, an encoder, a reply channel, a record read buffer, a
// reply copy, and a decoder; under a pipelined WAN flush those
// allocations dominate the profile. The pools below recycle all of
// them. TestCallAllocsGroundTruth pins the allocs/op figure.

// recPoolMax bounds the capacity of record buffers kept in the pool so
// one jumbo READ reply does not pin megabytes forever. NFS3 data
// blocks here are 32 KiB plus headers; 128 KiB keeps every ordinary
// record reusable.
const recPoolMax = 128 << 10

var recPool = sync.Pool{New: func() any { return new([]byte) }}

// recGet returns a pooled record buffer (possibly empty) for
// readRecord to fill. The *[]byte box travels with the buffer through
// channels and goroutine handoffs back to recPut, so recycling never
// re-boxes the slice header (a recPut taking a plain []byte costs one
// 24-byte allocation per call just to take its address).
func recGet() *[]byte { return recPool.Get().(*[]byte) }

// recPut recycles a record buffer obtained from recGet, dropping
// oversized ones.
func recPut(p *[]byte) {
	if cap(*p) > recPoolMax {
		return
	}
	*p = (*p)[:0]
	recPool.Put(p)
}

// callBufs is the per-call scratch state of Client.CallCred: the
// call's encoder (and its buffer), the reply decoder, and the reply
// channel. The channel is reused only when the call completed cleanly
// — paths where the channel may still receive a late or closed-channel
// signal nil it before pooling.
type callBufs struct {
	enc xdr.Encoder
	dec xdr.Decoder
	ch  chan *[]byte
}

var callBufPool = sync.Pool{New: func() any { return new(callBufs) }}

// dispatchBufs is the per-call decode state of Server.dispatch,
// including the Call value handed to the handler (valid only until the
// handler returns; see the Call doc comment).
type dispatchBufs struct {
	dec  xdr.Decoder
	call Call
}

var dispatchBufPool = sync.Pool{New: func() any { return new(dispatchBufs) }}

// replyPool holds the encoders of Server replies.
var replyPool = sync.Pool{New: func() any { return new(xdr.Encoder) }}
