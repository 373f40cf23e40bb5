// Package xdr implements the External Data Representation standard
// (XDR, RFC 4506) used by ONC RPC and the NFS protocol family.
//
// Every XDR message here is a whole record already in memory, so the
// package works on byte slices: an Encoder appends to its own buffer,
// and a Decoder reads a message's []byte in place, with big-endian
// loads, one make+copy per opaque and one conversion per string. It
// covers every primitive the NFS and MOUNT protocols need: 32- and
// 64-bit integers, booleans, fixed and variable-length opaque data,
// strings, and optional ("pointer") values. All quantities are
// big-endian and padded to 4-byte boundaries as the standard requires.
// Because the Decoder sees the whole message, a length word longer
// than the bytes that remain is refused before anything is allocated
// for it. Wire types describe themselves once, as an XDR method over a
// Codec, which runs that description in whichever direction it was
// obtained for.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Maximum variable-length element size accepted by a Decoder. This is a
// safety valve against corrupt or hostile length prefixes; NFSv3 never
// legitimately exceeds it (the largest objects are READ/WRITE payloads,
// bounded by rtmax/wtmax which are well under this limit).
const MaxElementSize = 1 << 26 // 64 MiB

// ErrElementTooLarge is returned when a decoded length prefix exceeds
// MaxElementSize.
var ErrElementTooLarge = errors.New("xdr: element length exceeds maximum")

var pad [4]byte

// padLen is the number of zero bytes that pad n bytes to a multiple
// of four.
func padLen(n int) int { return -n & 3 }

// Encoder appends XDR-encoded values to its buffer. The zero value is
// ready to use. Encoding into memory cannot fail, so an Encoder has no
// error state.
type Encoder struct {
	buf []byte
	c   Codec
}

// Reset empties the encoder's buffer, keeping its capacity, so hot
// paths can keep encoders in a sync.Pool instead of allocating one per
// message.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded message. It aliases the encoder's buffer
// until the next Reset or encode call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// Int32 encodes a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes a 64-bit unsigned integer (XDR unsigned hyper).
func (e *Encoder) Uint64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// Int64 encodes a 64-bit signed integer (XDR hyper).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool encodes an XDR boolean (a 32-bit 0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// Float64 encodes an IEEE 754 double-precision value.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// FixedOpaque encodes opaque data of a length known to both sides,
// padding to a 4-byte boundary.
func (e *Encoder) FixedOpaque(p []byte) {
	e.buf = append(append(e.buf, p...), pad[:padLen(len(p))]...)
}

// Opaque encodes variable-length opaque data: a length prefix followed
// by the bytes, padded to a 4-byte boundary.
func (e *Encoder) Opaque(p []byte) {
	e.Uint32(uint32(len(p)))
	e.FixedOpaque(p)
}

// String encodes an XDR string (identical wire form to Opaque).
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(append(e.buf, s...), pad[:padLen(len(s))]...)
}

// OptionalBegin encodes the presence discriminant of an XDR optional
// value ("*type"). When present is true the caller must follow with the
// encoding of the value itself.
func (e *Encoder) OptionalBegin(present bool) { e.Bool(present) }

// Decoder reads XDR-encoded values from a message in memory. It
// aliases the message until the next Reset, but every value it returns
// is a copy, so the message may be reused once decoding ends.
type Decoder struct {
	p   []byte // the bytes not yet decoded
	err error
	c   Codec
}

// NewDecoder returns a Decoder reading the message p.
func NewDecoder(p []byte) *Decoder { return &Decoder{p: p} }

// Reset re-arms the decoder to read the message p, clearing any sticky
// error, so pooled decoders can be reused across messages.
func (d *Decoder) Reset(p []byte) {
	d.p = p
	d.err = nil
}

// Err returns the first error encountered by the decoder, if any.
func (d *Decoder) Err() error { return d.err }

// SetErr records a validation error discovered by a caller while
// decoding, unless an earlier error is already pending. Subsequent
// decode calls become no-ops, matching the decoder's sticky-error
// discipline.
func (d *Decoder) SetErr(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take consumes the next n bytes of the message and returns them. On a
// message that ends first, or after an error, it returns nil and the
// error sticks.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.p) {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	if b := d.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Bool decodes an XDR boolean. Any nonzero value is treated as true,
// matching the leniency of common XDR implementations.
func (d *Decoder) Bool() bool { return d.Uint32() != 0 }

// Float64 decodes an IEEE 754 double-precision value.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// FixedOpaque decodes opaque data of known length into p.
func (d *Decoder) FixedOpaque(p []byte) {
	if b := d.take(len(p) + padLen(len(p))); b != nil {
		copy(p, b)
	}
}

// length decodes the length word of a variable-length item whose
// elements take at least unit bytes each, and vets it before anything
// is allocated: a length beyond max (and MaxElementSize), or beyond
// the bytes that remain in the message, is an error. Opaque, String
// and Array share it, so a forged length costs nothing but the error.
func (d *Decoder) length(max, unit uint32) (uint32, bool) {
	n := d.Uint32()
	if d.err != nil {
		return 0, false
	}
	if n > max || n > MaxElementSize {
		d.err = ErrElementTooLarge
		return 0, false
	}
	if uint64(n)*uint64(unit) > uint64(len(d.p)) {
		d.err = io.ErrUnexpectedEOF
		return 0, false
	}
	return n, true
}

// Opaque decodes variable-length opaque data, enforcing MaxElementSize.
func (d *Decoder) Opaque() []byte { return d.opaqueInto(nil, MaxElementSize) }

// BoundedOpaque decodes variable-length opaque data, rejecting any
// length beyond max before allocating. Wire-identical to Opaque; use
// it when the protocol advertises a transfer ceiling (NFS3 wtmax) so
// a hostile length word cannot force a MaxElementSize allocation.
func (d *Decoder) BoundedOpaque(max uint32) []byte { return d.opaqueInto(nil, max) }

// OpaqueInto decodes variable-length opaque data into dst when it fits,
// avoiding an allocation; otherwise it allocates. It returns the slice
// holding the data.
func (d *Decoder) OpaqueInto(dst []byte) []byte { return d.opaqueInto(dst, MaxElementSize) }

// opaqueInto is the decode arm every variable-length byte item shares:
// it vets the length word, then copies the bytes into dst when they
// fit and into a fresh slice otherwise. The fresh slice is grown by
// append, which does not zero the bytes the copy overwrites, as make
// would.
func (d *Decoder) opaqueInto(dst []byte, max uint32) []byte {
	n, ok := d.length(max, 1)
	if !ok {
		return nil
	}
	b := d.take(int(n) + padLen(int(n)))
	if d.err != nil {
		return nil
	}
	p := dst[:0]
	if dst == nil || int(n) > cap(dst) {
		p = []byte{}
	}
	return append(p, b[:n]...)
}

// String decodes an XDR string.
func (d *Decoder) String() string {
	n, ok := d.length(MaxElementSize, 1)
	if !ok {
		return ""
	}
	b := d.take(int(n) + padLen(int(n)))
	if d.err != nil {
		return ""
	}
	return string(b[:n])
}

// OptionalPresent decodes the presence discriminant of an XDR optional
// value. When it returns true the caller must decode the value.
func (d *Decoder) OptionalPresent() bool { return d.Bool() }

// Codec runs the one XDR description of a wire type — its XDR method —
// in the direction the codec was obtained for: from an Encoder each
// method writes the value it points at, from a Decoder it fills it in.
// Because the field list is written once, encoding and decoding cannot
// drift apart. A union decodes its discriminant before the description
// branches on it, since the branch reads the field the call just
// filled. A Codec lives inside its Encoder or Decoder, so handing one
// out costs no allocation.
type Codec struct {
	e *Encoder // set when encoding
	d *Decoder // set when decoding
}

// Codec returns the encoding codec of e.
func (e *Encoder) Codec() *Codec {
	e.c.e = e
	return &e.c
}

// Codec returns the decoding codec of d.
func (d *Decoder) Codec() *Codec {
	d.c.d = d
	return &d.c
}

// Decoding reports whether c fills values in from the wire. A
// description uses it only for checks that concern received input.
func (c *Codec) Decoding() bool { return c.d != nil }

// SetErr records a validation error found while decoding; see
// Decoder.SetErr. Encoding ignores it.
func (c *Codec) SetErr(err error) {
	if c.d != nil {
		c.d.SetErr(err)
	}
}

// Uint32 codes a 32-bit unsigned integer.
func (c *Codec) Uint32(v *uint32) {
	if c.d != nil {
		*v = c.d.Uint32()
	} else {
		c.e.Uint32(*v)
	}
}

// Uint64 codes a 64-bit unsigned integer (XDR unsigned hyper).
func (c *Codec) Uint64(v *uint64) {
	if c.d != nil {
		*v = c.d.Uint64()
	} else {
		c.e.Uint64(*v)
	}
}

// Bool codes an XDR boolean.
func (c *Codec) Bool(v *bool) {
	if c.d != nil {
		*v = c.d.Bool()
	} else {
		c.e.Bool(*v)
	}
}

// Optional codes the presence flag of an XDR optional value ("*type")
// and reports it; when it is true the caller codes the value next.
func (c *Codec) Optional(present *bool) bool {
	c.Bool(present)
	return *present
}

// String codes an XDR string.
func (c *Codec) String(v *string) {
	if c.d != nil {
		*v = c.d.String()
	} else {
		c.e.String(*v)
	}
}

// Opaque codes variable-length opaque data of at most max bytes (the
// protocol's bound: opaque<max>). Decoding rejects a longer length
// before allocating.
func (c *Codec) Opaque(v *[]byte, max uint32) {
	if c.d != nil {
		*v = c.d.BoundedOpaque(max)
	} else {
		c.e.Opaque(*v)
	}
}

// FixedOpaque codes opaque data of the fixed length len(p).
func (c *Codec) FixedOpaque(p []byte) {
	if c.d != nil {
		c.d.FixedOpaque(p)
	} else {
		c.e.FixedOpaque(p)
	}
}

// Enum codes a named unsigned type (a status, a discriminant) as a
// 32-bit word. Like every Codec method it writes *v only when decoding:
// encoders run over values other goroutines may be reading.
func Enum[T ~uint16 | ~uint32](c *Codec, v *T) {
	if c.d != nil {
		*v = T(c.d.Uint32())
	} else {
		c.e.Uint32(uint32(*v))
	}
}

// Array codes a counted array of at most max elements, each described
// by elem — typically the element type's XDR method expression, such as
// (*Entry).XDR. Decoding vets the count like an opaque length (every
// element takes at least four bytes) before allocating the slice.
func Array[T any](c *Codec, s *[]T, max uint32, elem func(*T, *Codec)) {
	if c.d == nil {
		c.e.Uint32(uint32(len(*s)))
	} else {
		n, ok := c.d.length(max, 4)
		if !ok {
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		elem(&(*s)[i], c)
		if c.d != nil && c.d.err != nil {
			return
		}
	}
}

// List codes an XDR linked list (a chain of optional "next" pointers):
// each element follows a present flag and an absent flag ends it.
func List[T any](c *Codec, s *[]T, elem func(*T, *Codec)) {
	if c.d == nil {
		for i := range *s {
			c.e.Bool(true)
			elem(&(*s)[i], c)
		}
		c.e.Bool(false)
		return
	}
	*s = nil
	for c.d.Bool() {
		var zero T
		*s = append(*s, zero)
		elem(&(*s)[len(*s)-1], c)
		if c.d.err != nil {
			return
		}
	}
}

// Marshaler is implemented by types that can encode themselves in XDR.
type Marshaler interface {
	EncodeXDR(*Encoder)
}

// Unmarshaler is implemented by types that can decode themselves.
type Unmarshaler interface {
	DecodeXDR(*Decoder)
}

// Marshal encodes v into a fresh byte slice. Encoding into memory
// cannot fail: the error is always nil.
func Marshal(v Marshaler) ([]byte, error) {
	e := new(Encoder)
	v.EncodeXDR(e)
	return e.buf, nil
}

// Unmarshal decodes v from p, requiring that all of p be consumed.
func Unmarshal(p []byte, v Unmarshaler) error {
	d := NewDecoder(p)
	v.DecodeXDR(d)
	if d.err != nil {
		return d.err
	}
	if len(d.p) != 0 {
		return fmt.Errorf("xdr: %d trailing bytes after decode", len(d.p))
	}
	return nil
}
