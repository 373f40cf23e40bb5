package oncrpc

import (
	"bufio"
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

// newRecord empties e and reserves the room for the record mark, so
// the message encoded after it goes out with the mark in one Write.
func newRecord(e *xdr.Encoder) {
	e.Reset()
	e.Uint32(0) // room for the record mark
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

// recordReaderSize is the read buffer of each connection's record
// reader: a record mark and a small message arrive with one read from
// the transport. A body at least this large, arriving at an empty
// buffer, bufio reads straight into the record buffer, so a 32 KiB
// READ reply costs one extra copy of at most this many bytes. A buffer
// as large as such a body would copy every bulk body once more.
const recordReaderSize = 4 << 10

// newRecordReader returns the reader a connection's read loop passes
// to readRecord.
func newRecordReader(r io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(r, recordReaderSize)
}

// readRecord reads one complete record-marked message, reassembling
// fragments. The provided buffer is reused when large enough.
func readRecord(br *bufio.Reader, buf []byte) ([]byte, error) {
	out := buf[:0]
	for {
		hdr, err := br.Peek(markLen)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		v := binary.BigEndian.Uint32(hdr)
		if _, err := br.Discard(markLen); err != nil {
			return nil, err
		}
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
		if _, err := io.ReadFull(br, out[off:]); err != nil {
			return nil, err
		}
		if v&lastFragmentBit != 0 {
			return out, nil
		}
	}
}
