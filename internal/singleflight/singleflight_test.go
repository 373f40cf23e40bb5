package singleflight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoSerial(t *testing.T) {
	t.Parallel()
	var g Group[int]
	v, err, shared := g.Do("k", func() (int, error) { return 42, nil })
	if v != 42 || err != nil || shared {
		t.Fatalf("Do = %d, %v, %v; want 42, nil, false", v, err, shared)
	}
	// The key is forgotten: a second call runs fn again.
	v, err, shared = g.Do("k", func() (int, error) { return 7, nil })
	if v != 7 || err != nil || shared {
		t.Fatalf("second Do = %d, %v, %v; want 7, nil, false", v, err, shared)
	}
}

func TestDoError(t *testing.T) {
	t.Parallel()
	var g Group[int]
	want := errors.New("boom")
	_, err, _ := g.Do("k", func() (int, error) { return 0, want })
	if !errors.Is(err, want) {
		t.Fatalf("err = %v; want %v", err, want)
	}
}

func TestDoDedup(t *testing.T) {
	t.Parallel()
	var g Group[string]
	var calls atomic.Int32
	release := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	results := make([]string, n)
	sharedCount := atomic.Int32{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := g.Do("key", func() (string, error) {
				calls.Add(1)
				<-release
				return "value", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
			if shared {
				sharedCount.Add(1)
			}
		}(i)
	}
	// Let the goroutines pile up on the in-flight call, then release.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times; want 1", got)
	}
	for i, r := range results {
		if r != "value" {
			t.Fatalf("caller %d got %q", i, r)
		}
	}
	if sharedCount.Load() != n-1 {
		t.Fatalf("shared for %d callers; want %d", sharedCount.Load(), n-1)
	}
}

func TestDoDistinctKeys(t *testing.T) {
	t.Parallel()
	var g Group[int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, _ := g.Do(Key([]byte("fh"), uint64(i)), func() (int, error) {
				calls.Add(1)
				return i, nil
			})
			if v != i {
				t.Errorf("key %d got %d", i, v)
			}
		}(i)
	}
	wg.Wait()
	if calls.Load() != 8 {
		t.Fatalf("fn ran %d times; want 8", calls.Load())
	}
}

func TestDoPanicReleasesWaiters(t *testing.T) {
	t.Parallel()
	var g Group[int]
	func() {
		defer func() { recover() }()
		g.Do("k", func() (int, error) { panic("fn exploded") })
	}()
	// The key must be forgotten and c.done closed; a fresh Do works.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, err, _ := g.Do("k", func() (int, error) { return 1, nil }); v != 1 || err != nil {
			t.Errorf("Do after panic = %d, %v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do after panic hung")
	}
}

func TestKeyUniqueness(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	fhs := [][]byte{[]byte("a"), []byte("a\x00"), []byte("ab"), {0, 1, 2}}
	for _, fh := range fhs {
		for idx := uint64(0); idx < 40; idx++ {
			k := Key(fh, idx)
			if seen[k] {
				t.Fatalf("collision for fh %q idx %d", fh, idx)
			}
			seen[k] = true
		}
	}
}

func TestPoolRunsWork(t *testing.T) {
	t.Parallel()
	p := NewPool(4)
	var ran atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		if !p.TryGo(func() { ran.Add(1); wg.Done() }) {
			wg.Done()
		}
	}
	wg.Wait()
	p.Close()
	if ran.Load() == 0 {
		t.Fatal("no submitted task ran")
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	t.Parallel()
	const workers = 3
	p := NewPool(workers)
	defer p.Close()
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		ok := p.TryGo(func() {
			defer wg.Done()
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
		if !ok {
			wg.Done()
		}
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks; pool size %d", p, workers)
	}
}

func TestPoolShedsWhenSaturated(t *testing.T) {
	t.Parallel()
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	p.TryGo(func() { <-block })
	// One task is running; the buffer holds one more; everything after
	// that must be shed without blocking.
	shed := false
	for i := 0; i < 10; i++ {
		if !p.TryGo(func() {}) {
			shed = true
			break
		}
	}
	if !shed {
		t.Fatal("saturated pool accepted unbounded work")
	}
}

func TestPoolCloseDrainsAndRejects(t *testing.T) {
	t.Parallel()
	p := NewPool(2)
	var ran atomic.Int32
	for i := 0; i < 4; i++ {
		p.TryGo(func() {
			time.Sleep(5 * time.Millisecond)
			ran.Add(1)
		})
	}
	accepted := ran.Load() // racy lower bound only; Close gives the real answer
	_ = accepted
	p.Close()
	if ran.Load() == 0 {
		t.Fatal("Close did not wait for queued work")
	}
	if p.TryGo(func() { t.Error("task ran after Close") }) {
		t.Fatal("TryGo succeeded after Close")
	}
	p.Close() // idempotent
}

// TestEach: every index runs exactly once and the number of calls in
// flight never exceeds the limit, for empty, single, under-full and
// over-full inputs.
func TestEach(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ n, limit int }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {37, 4}, {37, 1}, {5, 0},
	} {
		runs := make([]atomic.Int32, tc.n)
		var cur, peak atomic.Int32
		Each(tc.n, tc.limit, func(i int) {
			c := cur.Add(1)
			for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
			}
			runs[i].Add(1)
			time.Sleep(time.Millisecond) // hold the slot so overlap shows
			cur.Add(-1)
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("n=%d limit=%d: index %d ran %d times", tc.n, tc.limit, i, got)
			}
		}
		want := int32(tc.limit)
		if want < 1 {
			want = 1
		}
		if got := peak.Load(); got > want {
			t.Errorf("n=%d limit=%d: %d calls in flight at once", tc.n, tc.limit, got)
		}
		if tc.n > tc.limit && tc.limit > 1 && peak.Load() < 2 {
			t.Errorf("n=%d limit=%d: calls never overlapped", tc.n, tc.limit)
		}
	}
}
