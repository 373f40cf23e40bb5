// Package lockorder seeds a two-mutex lock-order cycle — one leg
// direct, one leg through an interprocedural call — plus benign
// shapes the analyzer must stay silent on.
package lockorder

import "sync"

type A struct {
	mu sync.Mutex
	b  *B
}

type B struct {
	mu sync.Mutex
	a  *A
}

// lockB takes B.mu while holding A.mu: the A.mu -> B.mu leg.
func (a *A) lockB() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.b.mu.Lock() // want "lock-order cycle"
	a.b.mu.Unlock()
}

// pokeA closes the cycle through a call: B.mu is held while touch
// acquires A.mu.
func (b *B) pokeA() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.a.touch()
}

func (a *A) touch() {
	a.mu.Lock()
	a.mu.Unlock()
}

// One-way nesting is fine: C.mu -> D.mu with no back edge.
type C struct {
	mu sync.Mutex
	d  *D
}

type D struct {
	mu sync.Mutex
	c  *C
}

func (c *C) down() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.d.mu.Lock()
	c.d.mu.Unlock()
}

// up takes the mutexes in the opposite order but never both at once.
func (d *D) up() {
	d.mu.Lock()
	d.mu.Unlock()
	d.c.mu.Lock()
	d.c.mu.Unlock()
}

// spawn would close the D.mu -> C.mu back edge if goroutines were
// treated as synchronous: the spawned literal runs outside the
// critical section, so no edge may be recorded.
func (d *D) spawn() {
	d.mu.Lock()
	defer d.mu.Unlock()
	go func() {
		d.c.down()
	}()
}

// handoff releases P.mu on both arms of the branch before it takes
// Q.mu, so the two are never held together and the reverse nesting in
// back closes no cycle.
type P struct {
	mu sync.Mutex
	q  *Q
	n  int
}

type Q struct {
	mu sync.Mutex
	p  *P
}

func (p *P) handoff(c bool) {
	p.mu.Lock()
	if c {
		p.n++
		p.mu.Unlock()
	} else {
		p.mu.Unlock()
	}
	p.q.mu.Lock()
	p.q.mu.Unlock()
}

func (q *Q) back() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.p.mu.Lock()
	q.p.mu.Unlock()
}
