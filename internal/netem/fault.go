package netem

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCut is surfaced by a faulted connection once an injected cut is
// observed (after a reset, or when a stalled connection is finally
// closed).
var ErrCut = errors.New("netem: connection cut by fault injection")

// ErrDialFault is returned by a faulted dialer when a dial failure is
// injected (reconnect flakiness).
var ErrDialFault = errors.New("netem: dial failed by fault injection")

// FaultMode selects how an injected cut manifests to the endpoints.
type FaultMode int

const (
	// FaultReset severs the connection immediately: both peers observe
	// a prompt read/write error, like a TCP RST.
	FaultReset FaultMode = iota
	// FaultStall freezes the connection silently: no more bytes are
	// delivered in either direction and no error is reported, like a
	// routing black hole. Only deadlines (or closing the connection)
	// get a caller out.
	FaultStall
	// FaultTamper keeps the connection and flips one byte read from
	// it: the byte at the armed offset, or, when the offset falls in a
	// write (or the cut is immediate), the next byte read. A secure
	// channel's MAC check then refuses the record.
	FaultTamper
)

// FaultPlan arms automatic cuts on every subsequently created
// connection. The zero plan injects nothing.
type FaultPlan struct {
	// CutAfterBytes cuts the connection once the total bytes moved
	// through it (both directions) reach this offset. 0 disables.
	CutAfterBytes int64
	// CutAfter cuts the connection this long after establishment.
	// 0 disables.
	CutAfter time.Duration
	// Mode is how the scheduled cut manifests.
	Mode FaultMode
}

// FaultStats counts injected events.
type FaultStats struct {
	Dials       uint64 // dials attempted through the faulter
	DialsFailed uint64 // dials refused by injection
	Cuts        uint64 // connection cuts injected
	Tampers     uint64 // bytes flipped by FaultTamper
	Live        int    // currently tracked connections
}

// Faulter injects link failures into connections and dialers: byte- or
// time-offset cuts, immediate kills of every live connection, reset,
// silent-stall and tamper failure modes, and dial flakiness for
// reconnect paths.
// It drives the chaos tests that kill the WAN link mid-workload. A
// Faulter is safe for concurrent use.
type Faulter struct {
	mu       sync.Mutex
	plan     FaultPlan
	failNext int
	conns    map[*faultConn]struct{}

	dials       atomic.Uint64
	dialsFailed atomic.Uint64
	cuts        atomic.Uint64
	tampers     atomic.Uint64
}

// NewFaulter returns a Faulter with no scheduled faults.
func NewFaulter() *Faulter {
	return &Faulter{conns: make(map[*faultConn]struct{})}
}

// SetPlan arms plan on connections created from now on. Existing
// connections are unaffected (use CutAll for those).
func (f *Faulter) SetPlan(p FaultPlan) {
	f.mu.Lock()
	f.plan = p
	f.mu.Unlock()
}

// FailNextDials makes the next n dials through Dialer fail with
// ErrDialFault, emulating a flaky path during reconnection.
func (f *Faulter) FailNextDials(n int) {
	f.mu.Lock()
	f.failNext = n
	f.mu.Unlock()
}

// Dialer wraps dial so every produced connection is tracked and
// subject to the armed fault plan, and dial failures can be injected.
func (f *Faulter) Dialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		f.dials.Add(1)
		f.mu.Lock()
		if f.failNext > 0 {
			f.failNext--
			f.mu.Unlock()
			f.dialsFailed.Add(1)
			return nil, ErrDialFault
		}
		f.mu.Unlock()
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return f.Wrap(c), nil
	}
}

// Wrap tracks c and arms the current fault plan on it.
func (f *Faulter) Wrap(c net.Conn) net.Conn {
	f.mu.Lock()
	plan := f.plan
	fc := &faultConn{
		Conn:    c,
		f:       f,
		mode:    plan.Mode,
		cutAt:   plan.CutAfterBytes,
		stalled: make(chan struct{}),
		dead:    make(chan struct{}),
	}
	f.conns[fc] = struct{}{}
	f.mu.Unlock()
	if plan.CutAfter > 0 {
		fc.timer = time.AfterFunc(plan.CutAfter, func() { fc.trip(plan.Mode) })
	}
	return fc
}

// CutAll severs every live tracked connection now, in the given mode.
func (f *Faulter) CutAll(mode FaultMode) {
	f.mu.Lock()
	live := make([]*faultConn, 0, len(f.conns))
	for fc := range f.conns {
		live = append(live, fc)
	}
	f.mu.Unlock()
	for _, fc := range live {
		fc.trip(mode)
	}
}

// Stats returns a snapshot of injected-event counters.
func (f *Faulter) Stats() FaultStats {
	f.mu.Lock()
	live := len(f.conns)
	f.mu.Unlock()
	return FaultStats{
		Dials:       f.dials.Load(),
		DialsFailed: f.dialsFailed.Load(),
		Cuts:        f.cuts.Load(),
		Tampers:     f.tampers.Load(),
		Live:        live,
	}
}

func (f *Faulter) forget(fc *faultConn) {
	f.mu.Lock()
	delete(f.conns, fc)
	f.mu.Unlock()
}

// faultConn interposes on a connection to observe traffic and enact
// cuts.
type faultConn struct {
	net.Conn
	f     *Faulter
	mode  FaultMode
	cutAt int64 // byte offset to cut at (0 = off)
	timer *time.Timer

	bytes  atomic.Int64
	tamper atomic.Bool // a tamper cut waits for the next byte read

	stallOnce sync.Once
	stalled   chan struct{} // closed when a stall cut trips
	closeOnce sync.Once
	dead      chan struct{} // closed on Close
}

// trip enacts a cut on the connection in the given mode.
func (c *faultConn) trip(mode FaultMode) {
	switch mode {
	case FaultStall:
		c.stallOnce.Do(func() {
			c.f.cuts.Add(1)
			close(c.stalled)
		})
	case FaultTamper:
		c.tamper.Store(true)
	default: // FaultReset
		select {
		case <-c.dead:
			return // already closed; not a new cut
		default:
		}
		c.f.cuts.Add(1)
		c.Conn.Close()
	}
}

// account adds n transferred bytes and trips the byte-offset cut when
// they cross it. It returns the index among them of the byte at the
// offset, or -1.
func (c *faultConn) account(n int) int {
	if n <= 0 {
		return -1
	}
	total := c.bytes.Add(int64(n))
	if c.cutAt > 0 && total >= c.cutAt && total-int64(n) < c.cutAt {
		c.trip(c.mode)
		return int(c.cutAt - (total - int64(n)) - 1)
	}
	return -1
}

// blackhole blocks until the connection is closed, then reports the
// cut. Used once a stall has tripped: a stalled link delivers nothing
// and errors nothing.
func (c *faultConn) blackhole() (int, error) {
	<-c.dead
	return 0, ErrCut
}

func (c *faultConn) Read(p []byte) (int, error) {
	select {
	case <-c.stalled:
		return c.blackhole()
	default:
	}
	n, err := c.Conn.Read(p)
	select {
	case <-c.stalled:
		// The stall tripped while we were blocked in Read: swallow
		// whatever arrived — a black hole delivers nothing.
		return c.blackhole()
	default:
	}
	if at := c.account(n); n > 0 && c.tamper.CompareAndSwap(true, false) {
		p[max(at, 0)] ^= 0xff
		c.f.tampers.Add(1)
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	select {
	case <-c.stalled:
		return c.blackhole()
	default:
	}
	n, err := c.Conn.Write(p)
	select {
	case <-c.stalled:
		return c.blackhole()
	default:
	}
	c.account(n)
	return n, err
}

func (c *faultConn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		if c.timer != nil {
			c.timer.Stop()
		}
		close(c.dead)
		err = c.Conn.Close()
		c.f.forget(c)
	})
	return err
}
