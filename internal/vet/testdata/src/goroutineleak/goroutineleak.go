// Package goroutineleak holds the shapes of the retired goroutine-leak
// analyzer as input to the check that replaced it, leakcheck: Leaks
// are the five it flagged, each of which leaves a goroutine blocked
// when it runs, and Clean are the shapes it accepted. Every shape
// returns a func that releases what it started.
package goroutineleak

import "time"

type mgr struct {
	stop   chan struct{}
	events chan int
}

func newMgr() *mgr { return &mgr{stop: make(chan struct{}), events: make(chan int)} }

// Stop closes m.stop, so receives from it are completion signals.
func (m *mgr) Stop() { close(m.stop) }

// leakyRecv blocks forever if no event ever arrives: m.events is
// never closed in this package.
func (m *mgr) leakyRecv() {
	go func() {
		v := <-m.events
		_ = v
	}()
}

// leakySend blocks forever if the consumer is gone.
func (m *mgr) leakySend(ch chan int) {
	go func() {
		ch <- 1
	}()
}

// waiter unblocks when Stop runs: m.stop is closed in this package.
func (m *mgr) waiter() {
	go func() {
		<-m.stop
	}()
}

// doneWatcher receives from a call result; the callee owns the
// channel's lifecycle.
type waitable interface {
	Done() <-chan struct{}
}

type doneChan chan struct{}

func (d doneChan) Done() <-chan struct{} { return d }

func doneWatcher(w waitable) {
	go func() {
		<-w.Done()
	}()
}

// timed receives from time.After: bounded by construction.
func timed() {
	go func() {
		<-time.After(10 * time.Millisecond)
	}()
}

// compute delivers its result through a channel buffered in the
// spawner: the send completes even if the consumer is gone.
func compute() chan int {
	ch := make(chan int, 1)
	go func() { ch <- 42 }()
	return ch
}

// watched pairs the event channel with a stop case.
func (m *mgr) watched() {
	go func() {
		for {
			select {
			case v := <-m.events:
				_ = v
			case <-m.stop:
				return
			}
		}
	}()
}

// polling selects with a default never block.
func (m *mgr) polling() {
	go func() {
		select {
		case v := <-m.events:
			_ = v
		default:
		}
	}()
}

// singleSelect is a bare receive in disguise.
func (m *mgr) singleSelect() {
	go func() {
		select {
		case v := <-m.events:
			_ = v
		}
	}()
}

// leakyRange never terminates: m.events is never closed.
func (m *mgr) leakyRange() {
	go func() {
		for range m.events {
		}
	}()
}

// namedLoop resolves the spawned function through the go statement.
func (m *mgr) namedLoop() {
	go m.recvLoop()
}

func (m *mgr) recvLoop() {
	v := <-m.events
	_ = v
}

// jobs ranges over a channel the spawner closes.
func jobs(work []int) {
	ch := make(chan int)
	go func() {
		for range ch {
		}
	}()
	for _, w := range work {
		ch <- w
	}
	close(ch)
}

// Leaks are the shapes whose goroutine blocks with nothing in sight to
// end it.
var Leaks = map[string]func() (release func()){
	"leakyRecv": func() func() { m := newMgr(); m.leakyRecv(); return func() { m.events <- 0 } },
	"leakySend": func() func() {
		ch := make(chan int)
		newMgr().leakySend(ch)
		return func() { <-ch }
	},
	"singleSelect": func() func() { m := newMgr(); m.singleSelect(); return func() { m.events <- 0 } },
	"leakyRange":   func() func() { m := newMgr(); m.leakyRange(); return func() { close(m.events) } },
	"namedLoop":    func() func() { m := newMgr(); m.namedLoop(); return func() { m.events <- 0 } },
}

// Clean are the shapes whose goroutine ends on its own or when release
// runs.
var Clean = map[string]func() (release func()){
	"waiter": func() func() { m := newMgr(); m.waiter(); return m.Stop },
	"doneWatcher": func() func() {
		d := make(doneChan)
		doneWatcher(d)
		return func() { close(d) }
	},
	"timed":   func() func() { timed(); return func() {} },
	"compute": func() func() { compute(); return func() {} },
	"watched": func() func() { m := newMgr(); m.watched(); return m.Stop },
	"polling": func() func() { newMgr().polling(); return func() {} },
	"jobs":    func() func() { jobs([]int{1, 2, 3}); return func() {} },
}
