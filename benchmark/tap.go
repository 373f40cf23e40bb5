package main

import (
	"encoding/binary"
	"math/bits"
	"net"
	"sync"
)

// Taps sit on the client side of each hop, interposed through the
// Dialers the product constructors already accept. The two plaintext
// hops carry ONC RPC with RFC 5531 record marking: the tap reassembles
// records from whatever chunks Write and Read happen to see, matches
// each reply to its call by xid and records one span per RPC. The
// encrypted hop yields bytes and frame counts only.

const progMount = 100005 // everything else on these hops is NFS (100003)

// recordScanner reassembles record-marked messages from a byte stream
// delivered in arbitrary pieces. It keeps only the first bytes of each
// record (enough for the RPC header fields the tap reads).
type recordScanner struct {
	hdr      [4]byte
	hdrN     int
	fragLeft int
	last     bool
	open     bool  // a record is in progress
	start    int64 // when the record's first byte was seen
	size     int   // record bytes so far, fragment headers excluded
	head     [24]byte
	headN    int
}

// feed consumes p, seen at time t, and calls emit once per completed
// record with its leading bytes, its size and the time its first byte
// was seen.
func (s *recordScanner) feed(p []byte, t int64, emit func(head []byte, size int, start int64)) {
	for len(p) > 0 {
		if s.fragLeft == 0 {
			if !s.open {
				s.open, s.start, s.size, s.headN = true, t, 0, 0
			}
			n := copy(s.hdr[s.hdrN:], p)
			s.hdrN += n
			p = p[n:]
			if s.hdrN < 4 {
				return
			}
			s.hdrN = 0
			v := binary.BigEndian.Uint32(s.hdr[:])
			s.last = v&(1<<31) != 0
			s.fragLeft = int(v &^ (1 << 31))
			if s.fragLeft > 0 {
				continue
			}
		} else {
			n := len(p)
			if n > s.fragLeft {
				n = s.fragLeft
			}
			if s.headN < len(s.head) {
				s.headN += copy(s.head[s.headN:], p[:n])
			}
			s.size += n
			s.fragLeft -= n
			p = p[n:]
		}
		if s.fragLeft == 0 && s.last {
			s.open, s.last = false, false
			emit(s.head[:s.headN], s.size, s.start)
		}
	}
}

// rpcTap records the RPCs of one plaintext hop.
type rpcTap struct {
	tr    *tracer
	layer int
}

func (t *rpcTap) dialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return &rpcTapConn{Conn: c, tap: t, pending: make(map[uint32]span)}, nil
	}
}

type rpcTapConn struct {
	net.Conn
	tap *rpcTap

	wmu sync.Mutex
	out recordScanner
	rmu sync.Mutex
	in  recordScanner

	pmu     sync.Mutex
	pending map[uint32]span // calls awaiting a reply, by xid
}

// Write notes the call before its bytes leave: on loopback the reply
// can be read by another goroutine before this Write returns.
func (c *rpcTapConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	c.out.feed(p, c.tap.tr.now(), c.call)
	c.wmu.Unlock()
	return c.Conn.Write(p)
}

func (c *rpcTapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	t := c.tap.tr.now()
	c.rmu.Lock()
	c.in.feed(p[:n], t, func(head []byte, size int, _ int64) { c.reply(head, size, t) })
	c.rmu.Unlock()
	return n, err
}

// call notes an outgoing call record: xid, message type CALL, RPC
// version, program, version, procedure.
func (c *rpcTapConn) call(head []byte, size int, start int64) {
	tr := c.tap.tr
	if !tr.on.Load() || len(head) < 24 || binary.BigEndian.Uint32(head[4:]) != 0 {
		return
	}
	name := uint16(binary.BigEndian.Uint32(head[20:]))
	if binary.BigEndian.Uint32(head[12:]) == progMount {
		name += mountProcBase
	}
	s := span{start: start, name: name, op: -1, out: uint32(size)}
	if c.tap.layer == layerClient {
		s.op = tr.curOp.Load()
	}
	c.pmu.Lock()
	c.pending[binary.BigEndian.Uint32(head)] = s
	c.pmu.Unlock()
}

// reply closes the span of the call with the same xid. Replies may come
// in any order; one with no recorded call (issued before the timed
// phase) is ignored.
func (c *rpcTapConn) reply(head []byte, size int, end int64) {
	if len(head) < 8 || binary.BigEndian.Uint32(head[4:]) != 1 {
		return
	}
	xid := binary.BigEndian.Uint32(head)
	c.pmu.Lock()
	s, ok := c.pending[xid]
	delete(c.pending, xid)
	c.pmu.Unlock()
	if !ok {
		return
	}
	s.end, s.in = end, uint32(size)
	c.tap.tr.add(c.tap.layer, s)
}

// Close counts the calls that never got a reply.
func (c *rpcTapConn) Close() error {
	c.pmu.Lock()
	c.tap.tr.unanswered.Add(int64(len(c.pending)))
	clear(c.pending) // a second Close must not count them again
	c.pmu.Unlock()
	return c.Conn.Close()
}

// wanTapConn counts bytes and securechan frames ([type u8 | len u32 |
// body]) on the encrypted hop.
type wanTapConn struct {
	net.Conn
	tr      *tracer
	out, in frameScanner
}

// frameScanner finds securechan frame boundaries in a chunked stream.
type frameScanner struct {
	mu       sync.Mutex
	hdr      [5]byte
	hdrN     int
	bodyLeft int
}

// feed consumes p and calls frame with each frame's body length.
func (s *frameScanner) feed(p []byte, frame func(body int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(p) > 0 {
		if s.bodyLeft > 0 {
			n := len(p)
			if n > s.bodyLeft {
				n = s.bodyLeft
			}
			s.bodyLeft -= n
			p = p[n:]
			continue
		}
		n := copy(s.hdr[s.hdrN:], p)
		s.hdrN += n
		p = p[n:]
		if s.hdrN == 5 {
			s.hdrN = 0
			s.bodyLeft = int(binary.BigEndian.Uint32(s.hdr[1:]))
			frame(s.bodyLeft)
		}
	}
}

func (c *wanTapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	on := c.tr.on.Load()
	c.out.feed(p[:n], func(body int) {
		if on {
			c.tr.wan.frame(true, body)
		}
	})
	if on {
		c.tr.wan.bytes(true, n)
	}
	return n, err
}

func (c *wanTapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	on := c.tr.on.Load()
	c.in.feed(p[:n], func(body int) {
		if on {
			c.tr.wan.frame(false, body)
		}
	})
	if on {
		c.tr.wan.bytes(false, n)
	}
	return n, err
}

// wanCounters holds the encrypted hop's bytes and frames per direction
// and a power-of-two histogram of frame body sizes, which the isolated
// securechan replay draws its record sizes from.
type wanCounters struct {
	mu                  sync.Mutex
	outBytes, inBytes   uint64
	outFrames, inFrames uint64
	sizeCount           [20]uint64 // frames with body size in [2^i, 2^(i+1))
	sizeBytes           [20]uint64
}

func (w *wanCounters) bytes(out bool, n int) {
	w.mu.Lock()
	if out {
		w.outBytes += uint64(n)
	} else {
		w.inBytes += uint64(n)
	}
	w.mu.Unlock()
}

func (w *wanCounters) frame(out bool, body int) {
	b := bits.Len(uint(body))
	if b > 0 {
		b--
	}
	w.mu.Lock()
	if out {
		w.outFrames++
	} else {
		w.inFrames++
	}
	w.sizeCount[b]++
	w.sizeBytes[b] += uint64(body)
	w.mu.Unlock()
}
