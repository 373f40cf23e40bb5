package oncrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/xdr"
)

// Record marking (RFC 5531 §11): on stream transports each RPC message
// is sent as one or more fragments, each prefixed by a 4-byte header
// whose high bit marks the final fragment and whose low 31 bits hold
// the fragment length. This implementation sends every message as one
// final fragment and reassembles whatever fragmentation a peer uses.

const (
	lastFragmentBit = 1 << 31
	fragmentLenMask = lastFragmentBit - 1

	// markLen is the size of the record mark, and of the room a message
	// buffer keeps in front of the message for writeRecord to fill.
	markLen = 4

	// maxRecordSize bounds a reassembled record; NFSv3 messages in this
	// codebase never exceed a few hundred KB (32 KB data blocks plus
	// headers), so 8 MiB leaves ample headroom while preventing a
	// corrupt length from exhausting memory.
	maxRecordSize = 8 << 20
)

// ErrRecordTooLarge reports a record too large to read (its reassembled
// size exceeds maxRecordSize) or to send as one fragment.
var ErrRecordTooLarge = errors.New("oncrpc: record exceeds maximum size")

// markRoom is what a message buffer starts with: markLen bytes that
// writeRecord overwrites with the record mark.
var markRoom [markLen]byte

// newRecord empties b and reserves the room for the record mark, so
// the message encoded after it goes out with the mark in one Write.
func newRecord(b *xdr.Buffer) {
	b.Reset()
	b.Write(markRoom[:])
}

// writeRecord sends the message in msg[markLen:] as one final fragment:
// it puts the record mark in the room newRecord left at the front of
// msg and writes mark and message with one Write, so a secure channel
// below seals them into the same records.
func writeRecord(w io.Writer, msg []byte) error {
	n := len(msg) - markLen
	if n > fragmentLenMask {
		return fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, n)
	}
	binary.BigEndian.PutUint32(msg, uint32(n)|lastFragmentBit)
	_, err := w.Write(msg)
	return err
}

// readRecord reads one complete record-marked message, reassembling
// fragments. The provided buffer is reused when large enough. hdr is
// caller-owned header scratch: a local array would move to the heap on
// every call (it is sliced into an interface Read), so read loops
// declare one outside the loop and pay that once per connection.
func readRecord(r io.Reader, buf []byte, hdr *[4]byte) ([]byte, error) {
	out := buf[:0]
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		v := binary.BigEndian.Uint32(hdr[:])
		n := int(v & fragmentLenMask)
		if len(out)+n > maxRecordSize {
			return nil, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(out)+n)
		}
		off := len(out)
		if cap(out) < off+n {
			grown := make([]byte, off, off+n)
			copy(grown, out)
			out = grown
		}
		out = out[:off+n]
		if _, err := io.ReadFull(r, out[off:]); err != nil {
			return nil, err
		}
		if v&lastFragmentBit != 0 {
			return out, nil
		}
	}
}
