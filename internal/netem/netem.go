// Package netem emulates wide-area network conditions on ordinary
// connections, standing in for the NIST Net router of the paper's
// testbed (§6.1). Wrapping one side of a connection imposes a
// one-way delay of RTT/2 in each direction (so a request/response pair
// experiences the full RTT) and, optionally, a serialization rate
// limit.
package netem

import (
	"net"
	"sync"
	"time"
)

// Config describes the emulated link.
type Config struct {
	// RTT is the round-trip time the link adds. Half is applied to
	// each direction.
	RTT time.Duration
	// Bandwidth, when positive, limits throughput in bytes/second in
	// each direction.
	Bandwidth int64
}

// Wrap imposes the emulated link on c. Both directions are shaped, so
// wrapping one endpoint of a connection suffices. Writes are
// asynchronous (the link buffers in flight data), preserving the
// pipelining behaviour of concurrent RPCs: two requests issued
// back-to-back pay the propagation delay once, not twice.
func Wrap(c net.Conn, cfg Config) net.Conn {
	if cfg.RTT == 0 && cfg.Bandwidth <= 0 {
		return c
	}
	w := &conn{
		Conn:  c,
		delay: cfg.RTT / 2,
		bw:    cfg.Bandwidth,
		in:    newDelayQueue(),
		out:   newDelayQueue(),
	}
	go w.pumpIn()
	go w.pumpOut()
	return w
}

// Dialer shapes every connection produced by dial.
func Dialer(dial func() (net.Conn, error), cfg Config) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return Wrap(c, cfg), nil
	}
}

// conn shapes both directions through release-time queues.
type conn struct {
	net.Conn
	delay time.Duration
	bw    int64

	in  *delayQueue // underlying -> Read
	out *delayQueue // Write -> underlying

	writeMu     sync.Mutex
	writeCursor time.Time
	readMu      sync.Mutex
	readCursor  time.Time

	closeOnce sync.Once
}

// Write enqueues p for delayed delivery and returns immediately,
// modelling the network buffering bytes in flight.
func (c *conn) Write(p []byte) (int, error) {
	if err := c.out.Err(); err != nil {
		return 0, err
	}
	cp := append([]byte(nil), p...)
	c.writeMu.Lock()
	now := time.Now()
	if c.writeCursor.Before(now) {
		c.writeCursor = now
	}
	if c.bw > 0 {
		c.writeCursor = c.writeCursor.Add(time.Duration(int64(len(p)) * int64(time.Second) / c.bw))
	}
	release := c.writeCursor.Add(c.delay)
	c.writeMu.Unlock()
	c.out.push(cp, release)
	return len(p), nil
}

// pumpOut delivers queued writes to the underlying connection at
// their release times.
func (c *conn) pumpOut() {
	buf := make([]byte, 0, 64*1024)
	for {
		data, err := c.out.pop(buf[:0])
		if err != nil {
			return
		}
		_, err = c.Conn.Write(data)
		c.out.delivered()
		if err != nil {
			c.out.close(err)
			return
		}
	}
}

// pumpIn reads from the underlying connection and releases data to
// Read after the one-way delay.
func (c *conn) pumpIn() {
	for {
		buf := make([]byte, 64*1024)
		n, err := c.Conn.Read(buf)
		now := time.Now()
		c.readMu.Lock()
		if c.readCursor.Before(now) {
			c.readCursor = now
		}
		if c.bw > 0 && n > 0 {
			c.readCursor = c.readCursor.Add(time.Duration(int64(n) * int64(time.Second) / c.bw))
		}
		release := c.readCursor.Add(c.delay)
		c.readMu.Unlock()
		if n > 0 {
			c.in.push(buf[:n], release)
		}
		if err != nil {
			c.in.close(err)
			return
		}
	}
}

// Read returns shaped incoming data.
func (c *conn) Read(p []byte) (int, error) { return c.in.read(p) }

// Close drains in-flight writes, then closes the underlying
// connection and ends the write pump.
func (c *conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.out.waitEmpty(2 * c.delay)
		err = c.Conn.Close()
		c.out.close(net.ErrClosed)
	})
	return err
}

// delayQueue is a FIFO of byte chunks with release times.
type delayQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks []chunk
	// popped counts chunks pop handed out whose consumer has not called
	// delivered yet: they have left the queue but not reached the wire.
	popped int
	err    error
}

type chunk struct {
	data    []byte
	release time.Time
}

func newDelayQueue() *delayQueue {
	q := &delayQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *delayQueue) push(data []byte, release time.Time) {
	q.mu.Lock()
	q.chunks = append(q.chunks, chunk{data: data, release: release})
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *delayQueue) close(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Err returns the queue's terminal error, if any.
func (q *delayQueue) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// pop removes the next chunk once its release time passes, appending
// it to dst.
func (q *delayQueue) pop(dst []byte) ([]byte, error) {
	q.mu.Lock()
	for {
		if len(q.chunks) > 0 {
			ch := q.chunks[0]
			wait := time.Until(ch.release)
			if wait > 0 {
				q.mu.Unlock()
				time.Sleep(wait)
				q.mu.Lock()
				continue
			}
			q.chunks = q.chunks[1:]
			q.popped++
			q.mu.Unlock()
			q.cond.Broadcast() // wake waitEmpty
			return append(dst, ch.data...), nil
		}
		if q.err != nil {
			err := q.err
			q.mu.Unlock()
			return nil, err
		}
		q.cond.Wait()
	}
}

// read copies queued data into p, respecting release times.
func (q *delayQueue) read(p []byte) (int, error) {
	q.mu.Lock()
	for {
		if len(q.chunks) > 0 {
			ch := &q.chunks[0]
			wait := time.Until(ch.release)
			if wait > 0 {
				q.mu.Unlock()
				time.Sleep(wait)
				q.mu.Lock()
				continue
			}
			n := copy(p, ch.data)
			if n == len(ch.data) {
				q.chunks = q.chunks[1:]
			} else {
				ch.data = ch.data[n:]
			}
			q.mu.Unlock()
			q.cond.Broadcast()
			return n, nil
		}
		if q.err != nil {
			err := q.err
			q.mu.Unlock()
			return 0, err
		}
		q.cond.Wait()
	}
}

// delivered retires the chunk pop handed out last.
func (q *delayQueue) delivered() {
	q.mu.Lock()
	q.popped--
	q.mu.Unlock()
}

// waitEmpty blocks until every queued and popped chunk is delivered or
// the grace period passes.
func (q *delayQueue) waitEmpty(grace time.Duration) {
	deadline := time.Now().Add(grace + 100*time.Millisecond)
	q.mu.Lock()
	for len(q.chunks)+q.popped > 0 && q.err == nil && time.Now().Before(deadline) {
		q.mu.Unlock()
		time.Sleep(time.Millisecond)
		q.mu.Lock()
	}
	q.mu.Unlock()
}
