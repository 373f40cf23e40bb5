package main

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
)

// scriptConn is a net.Conn whose Reads return scripted chunks and whose
// Writes go nowhere.
type scriptConn struct {
	net.Conn
	reads [][]byte
}

func (c *scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *scriptConn) Close() error                { return nil }
func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.reads) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.reads[0])
	if n == len(c.reads[0]) {
		c.reads = c.reads[1:]
	} else {
		c.reads[0] = c.reads[0][n:]
	}
	return n, nil
}

// record marks body as one RPC record split into the given fragment
// sizes (the rest goes in the last fragment).
func record(body []byte, frags ...int) []byte {
	var out []byte
	for _, n := range frags {
		out = binary.BigEndian.AppendUint32(out, uint32(n))
		out = append(out, body[:n]...)
		body = body[n:]
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(body))|1<<31)
	return append(out, body...)
}

func callBody(xid, proc uint32, payload int) []byte {
	b := make([]byte, 0, 40+payload)
	for _, v := range []uint32{xid, 0, 2, 100003, 3, proc, 0, 0, 0, 0} {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return append(b, make([]byte, payload)...)
}

func replyBody(xid uint32, payload int) []byte {
	b := make([]byte, 0, 24+payload)
	for _, v := range []uint32{xid, 1, 0, 0, 0, 0} {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return append(b, make([]byte, payload)...)
}

func newTestTap(reads ...[]byte) (*tracer, *rpcTapConn) {
	tr := newTracer()
	tr.on.Store(true)
	tap := &rpcTap{tr: tr, layer: layerClient}
	c := &rpcTapConn{Conn: &scriptConn{reads: reads}, tap: tap, pending: make(map[uint32]span)}
	return tr, c
}

func drain(t *testing.T, c *rpcTapConn, bufSize int) {
	t.Helper()
	buf := make([]byte, bufSize)
	for {
		if _, err := c.Read(buf); err == io.EOF {
			return
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTapSplitAndMergedRecords(t *testing.T) {
	// Two replies arrive merged in one TCP read and the third split
	// across three; the calls went out header and body separately, the
	// way oncrpc writes them.
	r1, r2, r3 := record(replyBody(1, 100)), record(replyBody(2, 0)), record(replyBody(3, 4000))
	merged := append(append([]byte(nil), r1...), r2...)
	tr, c := newTestTap(merged, r3[:2], r3[2:1000], r3[1000:])
	for xid := uint32(1); xid <= 3; xid++ {
		rec := record(callBody(xid, 6, 60))
		c.Write(rec[:4])
		c.Write(rec[4:])
	}
	drain(t, c, 64<<10)
	spans := tr.spans[layerClient]
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	wantIn := []uint32{24 + 100, 24, 24 + 4000}
	for i, s := range spans {
		if s.name != 6 || s.out != 100 || s.in != wantIn[i] || s.end < s.start {
			t.Errorf("span %d = %+v, want proc 6, 100 call bytes, %d reply bytes", i, s, wantIn[i])
		}
	}
	// One byte at a time must give the same answer.
	tr, c = newTestTap(merged, r3)
	for xid := uint32(1); xid <= 3; xid++ {
		for _, b := range record(callBody(xid, 6, 60)) {
			c.Write([]byte{b})
		}
	}
	drain(t, c, 1)
	if got := len(tr.spans[layerClient]); got != 3 {
		t.Fatalf("byte-at-a-time: %d spans, want 3", got)
	}
}

func TestTapMultiFragmentRecords(t *testing.T) {
	call := record(callBody(7, 7, 5000), 10, 0, 3000) // header split across fragments, one empty fragment
	reply := record(replyBody(7, 300), 4, 100)
	tr, c := newTestTap(reply[:7], reply[7:])
	c.Write(call)
	drain(t, c, 50)
	spans := tr.spans[layerClient]
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	if s := spans[0]; s.name != 7 || s.out != 40+5000 || s.in != 24+300 {
		t.Errorf("span = %+v, want proc 7, %d call bytes, %d reply bytes", s, 40+5000, 24+300)
	}
}

func TestTapOutOfOrderPipelinedAndUnanswered(t *testing.T) {
	// Four calls pipelined before any reply; replies come back 3, 1, 4;
	// 2 is never answered.
	var replies []byte
	for _, xid := range []uint32{3, 1, 4} {
		replies = append(replies, record(replyBody(xid, int(xid)))...)
	}
	tr, c := newTestTap(replies)
	for xid := uint32(1); xid <= 4; xid++ {
		c.Write(record(callBody(xid, xid, 0)))
	}
	drain(t, c, 4096)
	spans := tr.spans[layerClient]
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	for i, want := range []uint16{3, 1, 4} { // spans are recorded in reply order
		if spans[i].name != want || spans[i].in != 24+uint32(want) {
			t.Errorf("span %d = %+v, want the reply to call %d", i, spans[i], want)
		}
	}
	if n := maxOverlap(intervalsOf(spans)); n != 3 {
		t.Errorf("pipelined calls: max overlap %d, want 3", n)
	}
	c.Close()
	if got := tr.unanswered.Load(); got != 1 {
		t.Errorf("unanswered = %d, want 1", got)
	}
}

func TestTapRecordsOnlyWhileOn(t *testing.T) {
	tr, c := newTestTap(record(replyBody(1, 0)), record(replyBody(2, 0)))
	tr.on.Store(false)
	c.Write(record(callBody(1, 1, 0))) // set-up traffic: parsed to stay in step, not recorded
	tr.on.Store(true)
	c.Write(record(callBody(2, 1, 0)))
	drain(t, c, 4096)
	if got := len(tr.spans[layerClient]); got != 1 {
		t.Fatalf("%d spans, want 1", got)
	}
}

func TestFrameScanner(t *testing.T) {
	var stream []byte
	for _, n := range []int{4, 0, 16400} {
		stream = append(stream, 2)
		stream = binary.BigEndian.AppendUint32(stream, uint32(n))
		stream = append(stream, make([]byte, n)...)
	}
	for _, chunk := range []int{1, 3, 7, len(stream)} {
		var s frameScanner
		var bodies []int
		for rest := stream; len(rest) > 0; {
			n := chunk
			if n > len(rest) {
				n = len(rest)
			}
			s.feed(rest[:n], func(body int) { bodies = append(bodies, body) })
			rest = rest[n:]
		}
		if len(bodies) != 3 || bodies[0] != 4 || bodies[1] != 0 || bodies[2] != 16400 {
			t.Errorf("chunk %d: frames %v, want [4 0 16400]", chunk, bodies)
		}
	}
}
