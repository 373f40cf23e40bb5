package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// delayLink is the benchmark's own emulated WAN: a fixed one-way delay
// of RTT/2 in each direction on the connections it wraps, nothing
// else (no bandwidth cap, no loss). Writes return at once and are
// delivered later, so back-to-back requests share one propagation
// delay the way pipelined RPCs do on a real link. The benchmark does
// not use internal/netem so that edits there cannot move its baseline.
type delayLink struct {
	oneWay atomic.Int64 // nanoseconds
}

func newDelayLink(rtt time.Duration) *delayLink {
	l := &delayLink{}
	l.setRTT(rtt)
	return l
}

// setRTT changes the delay applied to data sent from now on. Set-up
// uses it to fill the disk cache quickly before a warm-cache workload.
func (l *delayLink) setRTT(rtt time.Duration) { l.oneWay.Store(int64(rtt / 2)) }

// wrap imposes the link on c. Both directions are delayed, so wrapping
// one endpoint is enough.
func (l *delayLink) wrap(c net.Conn) net.Conn {
	d := &delayConn{Conn: c, link: l, out: newDelayQueue(), in: newDelayQueue()}
	go d.pumpOut()
	go d.pumpIn()
	return d
}

type delayConn struct {
	net.Conn
	link    *delayLink
	out, in *delayQueue

	readMu sync.Mutex
	head   []byte // partly consumed chunk, guarded by readMu
}

func (d *delayConn) release() time.Time {
	return time.Now().Add(time.Duration(d.link.oneWay.Load()))
}

func (d *delayConn) Write(p []byte) (int, error) {
	if err := d.out.push(append([]byte(nil), p...), d.release()); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (d *delayConn) pumpOut() {
	for {
		data, err := d.out.pop()
		if err != nil {
			return
		}
		if _, err := d.Conn.Write(data); err != nil {
			d.out.fail(err)
			return
		}
	}
}

func (d *delayConn) pumpIn() {
	for {
		buf := make([]byte, 64<<10)
		n, err := d.Conn.Read(buf)
		if n > 0 && d.in.push(buf[:n], d.release()) != nil {
			return // closed meanwhile
		}
		if err != nil {
			d.in.fail(err)
			return
		}
	}
}

func (d *delayConn) Read(p []byte) (int, error) {
	d.readMu.Lock()
	defer d.readMu.Unlock()
	if len(d.head) == 0 {
		data, err := d.in.pop()
		if err != nil {
			return 0, err
		}
		d.head = data
	}
	n := copy(p, d.head)
	d.head = d.head[n:]
	return n, nil
}

// Close closes the underlying connection; both pumps then stop. Bytes
// still in flight are dropped, as on a link that goes away.
func (d *delayConn) Close() error {
	err := d.Conn.Close()
	d.out.fail(net.ErrClosed)
	d.in.fail(net.ErrClosed)
	return err
}

// delayQueue is a FIFO of byte chunks, each with the time it may leave.
type delayQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks []delayChunk
	err    error
}

type delayChunk struct {
	data    []byte
	release time.Time
}

func newDelayQueue() *delayQueue {
	q := &delayQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *delayQueue) push(data []byte, release time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	q.chunks = append(q.chunks, delayChunk{data, release})
	q.cond.Signal()
	return nil
}

func (q *delayQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pop returns the oldest chunk once its release time has passed. Queued
// chunks are still delivered after fail, then the error is returned.
func (q *delayQueue) pop() ([]byte, error) {
	q.mu.Lock()
	for len(q.chunks) == 0 {
		if q.err != nil {
			err := q.err
			q.mu.Unlock()
			return nil, err
		}
		q.cond.Wait()
	}
	ch := q.chunks[0]
	q.chunks[0] = delayChunk{}
	q.chunks = q.chunks[1:]
	q.mu.Unlock()
	if wait := time.Until(ch.release); wait > 0 {
		time.Sleep(wait)
	}
	return ch.data, nil
}
