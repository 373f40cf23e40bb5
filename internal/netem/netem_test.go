package netem

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// tcpPair returns two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	a, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { a.Close(); r.c.Close() })
	return a, r.c
}

func TestRTTImposed(t *testing.T) {
	a, b := tcpPair(t)
	shaped := Wrap(a, Config{RTT: 40 * time.Millisecond})
	defer shaped.Close()

	// Echo server on the unshaped side.
	go func() {
		buf := make([]byte, 64)
		for {
			n, err := b.Read(buf)
			if err != nil {
				return
			}
			b.Write(buf[:n])
		}
	}()

	start := time.Now()
	shaped.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(shaped, buf); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 35*time.Millisecond {
		t.Fatalf("round trip %v, want >= ~40ms", rtt)
	}
	if rtt > 120*time.Millisecond {
		t.Fatalf("round trip %v, far above the configured RTT", rtt)
	}
}

func TestZeroConfigPassthrough(t *testing.T) {
	a, _ := tcpPair(t)
	if Wrap(a, Config{}) != a {
		t.Fatal("zero config should return the original conn")
	}
}

func TestDataIntegrityUnderShaping(t *testing.T) {
	a, b := tcpPair(t)
	shaped := Wrap(a, Config{RTT: 4 * time.Millisecond})
	defer shaped.Close()
	payload := make([]byte, 256*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	go func() {
		shaped.Write(payload)
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted by shaping")
	}
}

func TestPipeliningSharesDelay(t *testing.T) {
	// Two writes issued back-to-back must not pay the one-way delay
	// twice: the link buffers in-flight data.
	a, b := tcpPair(t)
	shaped := Wrap(a, Config{RTT: 60 * time.Millisecond})
	defer shaped.Close()
	go func() {
		shaped.Write([]byte("11111111"))
		shaped.Write([]byte("22222222"))
	}()
	start := time.Now()
	buf := make([]byte, 16)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// One propagation delay (30ms), not two.
	if elapsed > 55*time.Millisecond {
		t.Fatalf("pipelined writes took %v; delay applied serially", elapsed)
	}
}

func TestBandwidthLimit(t *testing.T) {
	a, b := tcpPair(t)
	// 1 MB/s: 256 KB should take ~250ms.
	shaped := Wrap(a, Config{Bandwidth: 1 << 20})
	defer shaped.Close()
	payload := make([]byte, 256*1024)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		io.ReadFull(b, make([]byte, len(payload)))
	}()
	start := time.Now()
	shaped.Write(payload)
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("256KB at 1MB/s took only %v", elapsed)
	}
}

func TestDialerWrapper(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
	}()
	dial := Dialer(func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) },
		Config{RTT: 20 * time.Millisecond})
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	c.Write([]byte("x"))
	io.ReadFull(c, make([]byte, 1))
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("echo took %v, want >= ~20ms", d)
	}
}

func TestCloseDrainsInFlight(t *testing.T) {
	a, b := tcpPair(t)
	shaped := Wrap(a, Config{RTT: 30 * time.Millisecond})
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 5)
		io.ReadFull(b, buf)
		done <- buf
	}()
	shaped.Write([]byte("final"))
	shaped.Close() // must not drop the queued write
	select {
	case got := <-done:
		if string(got) != "final" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(time.Second):
		t.Fatal("in-flight write lost at close")
	}
}
