// Package unboundedalloc exercises the unbounded-alloc analyzer:
// wire-decoded integers reaching allocation sizes with no dominating
// bound check.
package unboundedalloc

import (
	"encoding/binary"
	"io"

	"repro/internal/xdr"
)

const maxFrame = 1 << 20

// bad allocates straight from the wire.
func bad(d *xdr.Decoder) []byte {
	n := d.Uint32()
	return make([]byte, n) // want "xdr-decoded length"
}

// bounded rejects oversized lengths before allocating.
func bounded(d *xdr.Decoder) []byte {
	n := d.Uint32()
	if n > maxFrame {
		return nil
	}
	return make([]byte, n)
}

// clamped caps the value instead of rejecting.
func clamped(d *xdr.Decoder) []byte {
	n := d.Uint32()
	if n > maxFrame {
		n = maxFrame
	}
	return make([]byte, n)
}

// record reads a length header with encoding/binary and trusts it.
func record(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	buf := make([]byte, n) // want "wire length"
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// grow bounds the running total with a compound condition; the false
// edge of the || proves the bound.
func grow(d *xdr.Decoder) []byte {
	var out []byte
	for {
		n := d.Uint32()
		if n == 0 || len(out)+int(n) > maxFrame {
			return out
		}
		out = append(out, make([]byte, n)...)
	}
}

// msg is a decoded message: Count is filled from the wire in decode,
// so every read of the field is tainted module-wide.
type msg struct {
	Count uint32
	Data  []byte
}

func (m *msg) decode(d *xdr.Decoder) {
	m.Count = d.Uint32()
	m.Data = d.Opaque()
}

// useField allocates from the decoded field with no bound.
func useField(m *msg) []byte {
	return make([]byte, m.Count) // want "wire-decoded field"
}

// useFieldBounded clamps the field first.
func useFieldBounded(m *msg) []byte {
	c := m.Count
	if c > maxFrame {
		c = maxFrame
	}
	return make([]byte, c)
}

// readLen hides the decode one call deep; callers inherit the taint
// through the one-level summary.
func readLen(d *xdr.Decoder) uint32 { return d.Uint32() }

func viaHelper(d *xdr.Decoder, r io.Reader) (int64, error) {
	n := readLen(d)
	return io.CopyN(io.Discard, r, int64(n)) // want "io.CopyN length"
}

func viaHelperBounded(d *xdr.Decoder, r io.Reader) (int64, error) {
	n := readLen(d)
	if n > maxFrame {
		n = maxFrame
	}
	return io.CopyN(io.Discard, r, int64(n))
}

// codecBad fills a local through a codec's pointer argument and trusts
// it.
func codecBad(c *xdr.Codec) []byte {
	var n uint32
	c.Uint32(&n)
	return make([]byte, n) // want "Codec.Uint32"
}

// codecBounded rejects oversized lengths before allocating.
func codecBounded(c *xdr.Codec) []byte {
	var n uint32
	c.Uint32(&n)
	if n > maxFrame {
		return nil
	}
	return make([]byte, n)
}

// frame's Len is named by its XDR description, so every read of the
// field is tainted module-wide.
type frame struct{ Len uint64 }

func (f *frame) XDR(c *xdr.Codec) { c.Uint64(&f.Len) }

func useFrame(f *frame) []byte {
	return make([]byte, f.Len) // want "wire-decoded field"
}
