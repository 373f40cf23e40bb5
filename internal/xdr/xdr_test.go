package xdr

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, enc func(*Encoder), dec func(*Decoder)) {
	t.Helper()
	var e Encoder
	enc(&e)
	if n := len(e.Bytes()); n%4 != 0 {
		t.Fatalf("encoded length %d not a multiple of 4", n)
	}
	d := NewDecoder(e.Bytes())
	dec(d)
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(d.p) != 0 {
		t.Fatalf("%d trailing bytes", len(d.p))
	}
}

func TestUint32RoundTrip(t *testing.T) {
	for _, v := range []uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff} {
		roundTrip(t, func(e *Encoder) { e.Uint32(v) }, func(d *Decoder) {
			if got := d.Uint32(); got != v {
				t.Errorf("got %d want %d", got, v)
			}
		})
	}
}

func TestInt32RoundTrip(t *testing.T) {
	for _, v := range []int32{0, -1, math.MinInt32, math.MaxInt32, 42} {
		roundTrip(t, func(e *Encoder) { e.Int32(v) }, func(d *Decoder) {
			if got := d.Int32(); got != v {
				t.Errorf("got %d want %d", got, v)
			}
		})
	}
}

func TestUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, math.MaxUint64, 1 << 33} {
		roundTrip(t, func(e *Encoder) { e.Uint64(v) }, func(d *Decoder) {
			if got := d.Uint64(); got != v {
				t.Errorf("got %d want %d", got, v)
			}
		})
	}
}

func TestInt64RoundTrip(t *testing.T) {
	for _, v := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		roundTrip(t, func(e *Encoder) { e.Int64(v) }, func(d *Decoder) {
			if got := d.Int64(); got != v {
				t.Errorf("got %d want %d", got, v)
			}
		})
	}
}

func TestBoolRoundTrip(t *testing.T) {
	for _, v := range []bool{true, false} {
		roundTrip(t, func(e *Encoder) { e.Bool(v) }, func(d *Decoder) {
			if got := d.Bool(); got != v {
				t.Errorf("got %v want %v", got, v)
			}
		})
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	for _, v := range []float64{0, -1.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		roundTrip(t, func(e *Encoder) { e.Float64(v) }, func(d *Decoder) {
			if got := d.Float64(); got != v {
				t.Errorf("got %v want %v", got, v)
			}
		})
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, v := range []string{"", "a", "ab", "abc", "abcd", "hello, wörld"} {
		roundTrip(t, func(e *Encoder) { e.String(v) }, func(d *Decoder) {
			if got := d.String(); got != v {
				t.Errorf("got %q want %q", got, v)
			}
		})
	}
}

func TestOpaqueRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 1023} {
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(i)
		}
		roundTrip(t, func(e *Encoder) { e.Opaque(v) }, func(d *Decoder) {
			if got := d.Opaque(); !bytes.Equal(got, v) {
				t.Errorf("len %d: mismatch", n)
			}
		})
	}
}

func TestFixedOpaquePadding(t *testing.T) {
	for n := 0; n < 9; n++ {
		v := make([]byte, n)
		var e Encoder
		e.FixedOpaque(v)
		want := (n + 3) / 4 * 4
		if len(e.Bytes()) != want {
			t.Errorf("n=%d: encoded %d bytes, want %d", n, len(e.Bytes()), want)
		}
	}
}

func TestOpaqueIntoReuse(t *testing.T) {
	var e Encoder
	payload := []byte("payload-bytes")
	e.Opaque(payload)
	d := NewDecoder(e.Bytes())
	dst := make([]byte, 0, 64)
	got := d.OpaqueInto(dst)
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("OpaqueInto did not reuse the destination buffer")
	}
}

func TestOpaqueIntoGrows(t *testing.T) {
	var e Encoder
	payload := bytes.Repeat([]byte{7}, 100)
	e.Opaque(payload)
	d := NewDecoder(e.Bytes())
	got := d.OpaqueInto(make([]byte, 0, 4))
	if !bytes.Equal(got, payload) {
		t.Fatal("mismatch after growth")
	}
}

func TestBoundedOpaque(t *testing.T) {
	var e Encoder
	payload := []byte("within-bound")
	e.Opaque(payload)
	d := NewDecoder(e.Bytes())
	if got := d.BoundedOpaque(32); !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}

	d = NewDecoder(e.Bytes())
	if got := d.BoundedOpaque(uint32(len(payload)) - 1); got != nil {
		t.Fatal("expected nil result beyond bound")
	}
	if !errors.Is(d.Err(), ErrElementTooLarge) {
		t.Fatalf("err = %v, want ErrElementTooLarge", d.Err())
	}
}

func TestOpaqueTooLarge(t *testing.T) {
	var e Encoder
	e.Uint32(MaxElementSize + 1)
	d := NewDecoder(e.Bytes())
	if got := d.Opaque(); got != nil {
		t.Fatal("expected nil result")
	}
	if d.Err() == nil {
		t.Fatal("expected error for oversized element")
	}
}

func TestDecoderShortInput(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	d.Uint32()
	if d.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("got %v, want unexpected EOF", d.Err())
	}
}

func TestDecoderErrorSticks(t *testing.T) {
	d := NewDecoder(nil)
	d.Uint32()
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	d.Uint64()
	if d.Err() != first {
		t.Fatal("error did not stick")
	}
}

func TestOptional(t *testing.T) {
	roundTrip(t, func(e *Encoder) {
		e.OptionalBegin(true)
		e.Uint32(9)
		e.OptionalBegin(false)
	}, func(d *Decoder) {
		if !d.OptionalPresent() {
			t.Fatal("first optional should be present")
		}
		if d.Uint32() != 9 {
			t.Fatal("wrong value")
		}
		if d.OptionalPresent() {
			t.Fatal("second optional should be absent")
		}
	})
}

type pair struct {
	A uint32
	S string
}

func (p *pair) EncodeXDR(e *Encoder) { e.Uint32(p.A); e.String(p.S) }
func (p *pair) DecodeXDR(d *Decoder) { p.A = d.Uint32(); p.S = d.String() }

func TestMarshalUnmarshal(t *testing.T) {
	in := &pair{A: 77, S: "grid"}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out pair
	if err := Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Fatalf("got %+v want %+v", out, *in)
	}
}

func TestUnmarshalTrailing(t *testing.T) {
	in := &pair{A: 1, S: "x"}
	b, _ := Marshal(in)
	b = append(b, 0, 0, 0, 0)
	var out pair
	if err := Unmarshal(b, &out); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

// Property: any byte slice round-trips through variable-length opaque.
func TestQuickOpaque(t *testing.T) {
	f := func(p []byte) bool {
		var e Encoder
		e.Opaque(p)
		d := NewDecoder(e.Bytes())
		got := d.Opaque()
		return d.Err() == nil && bytes.Equal(got, p) && len(d.p) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any string round-trips.
func TestQuickString(t *testing.T) {
	f := func(s string) bool {
		var e Encoder
		e.String(s)
		d := NewDecoder(e.Bytes())
		return d.String() == s && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mixed sequences of integers round-trip in order.
func TestQuickIntegers(t *testing.T) {
	f := func(a uint32, b int32, c uint64, d int64) bool {
		var e Encoder
		e.Uint32(a)
		e.Int32(b)
		e.Uint64(c)
		e.Int64(d)
		dec := NewDecoder(e.Bytes())
		return dec.Uint32() == a && dec.Int32() == b &&
			dec.Uint64() == c && dec.Int64() == d && dec.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Reset empties an encoder but keeps its storage, and clears a
// decoder's sticky error, so pooled codecs start each message clean.
func TestEncoderDecoderReset(t *testing.T) {
	var e Encoder
	e.Uint32(1)
	e.Reset()
	if len(e.Bytes()) != 0 {
		t.Fatalf("%d bytes survived Reset", len(e.Bytes()))
	}
	e.Uint32(7)
	if len(e.Bytes()) != 4 || cap(e.Bytes()) < 8 {
		t.Fatalf("encode after Reset: len=%d cap=%d", len(e.Bytes()), cap(e.Bytes()))
	}

	d := NewDecoder(nil)
	d.Uint32() // truncated
	if d.Err() == nil {
		t.Fatal("expected sticky decode error")
	}
	d.Reset(e.Bytes())
	if got := d.Uint32(); got != 7 || d.Err() != nil {
		t.Fatalf("decode after Reset = %d, %v", got, d.Err())
	}
}

// A decoder reads its message in place (no copy of it is made), every
// value it returns is a copy, and Reset rewinds it.
func TestDecoderReadsInPlace(t *testing.T) {
	p := []byte{0, 0, 0, 9, 0, 0, 0, 2, 'h', 'i', 0, 0}
	d := NewDecoder(p)
	if n := testing.AllocsPerRun(10, func() { d.Reset(p); d.Uint32() }); n != 0 {
		t.Fatalf("decoding a word allocated %.0f times", n)
	}
	got := d.Opaque()
	if d.Err() != nil || string(got) != "hi" || &got[0] == &p[8] {
		t.Fatalf("opaque %q, %v: want a copy of \"hi\"", got, d.Err())
	}
	d.Reset(p) // rewind
	if got := d.Uint32(); got != 9 || d.Err() != nil {
		t.Fatalf("re-read %d, %v", got, d.Err())
	}
}

// allocatedBy reports the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

type blob struct {
	A uint32
	B []byte
}

func (b *blob) EncodeXDR(e *Encoder) { e.Uint32(b.A); e.Opaque(b.B) }
func (b *blob) DecodeXDR(d *Decoder) { b.A = d.Uint32(); b.B = d.Opaque() }

type words struct{ V []uint32 }

func (w *words) XDR(c *Codec) {
	Array(c, &w.V, MaxElementSize, func(v *uint32, c *Codec) { c.Uint32(v) })
}
func (w *words) EncodeXDR(e *Encoder) { w.XDR(e.Codec()) }
func (w *words) DecodeXDR(d *Decoder) { w.XDR(d.Codec()) }

// A length word larger than the rest of an in-memory message is
// rejected before anything is allocated for it: an 8-byte message must
// not cost 64 MiB.
func TestForgedLengthDoesNotAllocate(t *testing.T) {
	for _, c := range []struct {
		name string
		msg  Unmarshaler
		wire []byte
	}{
		{"opaque", &blob{}, []byte{0, 0, 0, 7, 0x03, 0xff, 0xff, 0xff}},
		{"array", &words{}, []byte{0x03, 0xff, 0xff, 0xff, 0, 0, 0, 7}},
	} {
		var err error
		if n := allocatedBy(func() { err = Unmarshal(c.wire, c.msg) }); n >= 1<<20 {
			t.Errorf("%s: decoding 8 bytes allocated %d bytes", c.name, n)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want unexpected EOF", c.name, err)
		}
	}
}

// codecAll names every kind of item a Codec codes.
type codecAll struct {
	U32     uint32
	U64     uint64
	B       bool
	S       string
	Op      []byte
	Fixed   [6]byte
	Present bool
	Opt     uint32
	Kind    kind
	Arr     []uint32
	List    []string
}

type kind uint16

func (a *codecAll) XDR(c *Codec) {
	c.Uint32(&a.U32)
	c.Uint64(&a.U64)
	c.Bool(&a.B)
	c.String(&a.S)
	c.Opaque(&a.Op, 16)
	c.FixedOpaque(a.Fixed[:])
	if c.Optional(&a.Present) {
		c.Uint32(&a.Opt)
	}
	Enum(c, &a.Kind)
	Array(c, &a.Arr, 4, func(v *uint32, c *Codec) { c.Uint32(v) })
	List(c, &a.List, func(s *string, c *Codec) { c.String(s) })
}

// One description run in both directions round-trips, and writes what
// the hand-written Encoder calls write.
func TestCodecRoundTrip(t *testing.T) {
	in := codecAll{U32: 1, U64: 1 << 40, B: true, S: "grid", Op: []byte{1, 2, 3},
		Fixed: [6]byte{9, 8, 7, 6, 5, 4}, Present: true, Opt: 77, Kind: 3,
		Arr: []uint32{5, 6}, List: []string{"a", "bc"}}
	var b Encoder
	in.XDR(b.Codec())
	var e Encoder
	e.Uint32(1)
	e.Uint64(1 << 40)
	e.Bool(true)
	e.String("grid")
	e.Opaque([]byte{1, 2, 3})
	e.FixedOpaque([]byte{9, 8, 7, 6, 5, 4})
	e.OptionalBegin(true)
	e.Uint32(77)
	e.Uint32(3)
	e.Uint32(2)
	e.Uint32(5)
	e.Uint32(6)
	for _, s := range []string{"a", "bc"} {
		e.OptionalBegin(true)
		e.String(s)
	}
	e.OptionalBegin(false)
	if !bytes.Equal(b.Bytes(), e.Bytes()) {
		t.Fatalf("codec wrote %x, want %x", b.Bytes(), e.Bytes())
	}
	var out codecAll
	d := NewDecoder(b.Bytes())
	if out.XDR(d.Codec()); d.Err() != nil || len(d.p) != 0 {
		t.Fatalf("decode: %v, %d bytes left", d.Err(), len(d.p))
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

// Opaque and Array reject lengths beyond their bound; Decoding and
// SetErr act only in the decoding direction.
func TestCodecBoundsAndDirection(t *testing.T) {
	var e Encoder
	e.Opaque(make([]byte, 17))
	d := NewDecoder(e.Bytes())
	var p []byte
	if d.Codec().Opaque(&p, 16); !errors.Is(d.Err(), ErrElementTooLarge) {
		t.Fatalf("opaque<16> of 17 bytes: err = %v", d.Err())
	}
	e.Reset()
	e.Uint32(5)
	d = NewDecoder(e.Bytes())
	var v []uint32
	if Array(d.Codec(), &v, 4, func(v *uint32, c *Codec) { c.Uint32(v) }); !errors.Is(d.Err(), ErrElementTooLarge) {
		t.Fatalf("array<4> of 5: err = %v", d.Err())
	}
	e.Reset()
	ec := e.Codec()
	if ec.Decoding() || !NewDecoder(nil).Codec().Decoding() {
		t.Fatal("Decoding reports the wrong direction")
	}
	ec.SetErr(io.ErrClosedPipe) // must not panic on the encoder side
	if ec.Uint32(new(uint32)); len(e.Bytes()) != 4 {
		t.Fatal("SetErr stopped an encoder")
	}
}

// Encoding only reads the value it describes, so one value may be
// encoded from several goroutines at once (a shared config's suites,
// a cached reply); run under -race this catches a write-back.
func TestCodecEncodeIsReadOnly(t *testing.T) {
	in := codecAll{S: "grid", Op: []byte{1}, Present: true, Kind: 3, Arr: []uint32{5}, List: []string{"a"}}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var e Encoder
			in.XDR(e.Codec())
		}()
	}
	wg.Wait()
}
