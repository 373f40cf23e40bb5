package netem

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestFaultResetAtByteOffset(t *testing.T) {
	t.Parallel()
	f := NewFaulter()
	f.SetPlan(FaultPlan{CutAfterBytes: 1024, Mode: FaultReset})
	c1, c2 := net.Pipe()
	w := f.Wrap(c1)
	defer w.Close()
	defer c2.Close()

	writeErr := make(chan error, 1)
	go func() {
		chunk := make([]byte, 256)
		for {
			if _, err := w.Write(chunk); err != nil {
				writeErr <- err
				return
			}
		}
	}()

	got := 0
	buf := make([]byte, 256)
	for {
		n, err := c2.Read(buf)
		got += n
		if err != nil {
			break
		}
	}
	if got < 1024 {
		t.Fatalf("peer received %d bytes before cut, want >= 1024", got)
	}
	select {
	case err := <-writeErr:
		if err == nil {
			t.Fatal("writer did not observe the cut")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer still running after cut")
	}
	if st := f.Stats(); st.Cuts != 1 {
		t.Fatalf("cuts = %d, want 1", st.Cuts)
	}
}

func TestFaultStallBlackholesReads(t *testing.T) {
	t.Parallel()
	f := NewFaulter()
	c1, c2 := net.Pipe()
	w := f.Wrap(c1)
	defer c2.Close()

	// Data flows before the stall.
	go c2.Write([]byte("before"))
	buf := make([]byte, 16)
	n, err := w.Read(buf)
	if err != nil || string(buf[:n]) != "before" {
		t.Fatalf("pre-stall read: %q, %v", buf[:n], err)
	}

	f.CutAll(FaultStall)

	// A stalled link delivers nothing and reports nothing, even when
	// the peer keeps writing.
	res := make(chan error, 1)
	go func() {
		_, err := w.Read(buf)
		res <- err
	}()
	go c2.Write([]byte("lost"))
	select {
	case err := <-res:
		t.Fatalf("read returned during stall: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Closing the connection finally surfaces the cut.
	w.Close()
	select {
	case err := <-res:
		if !errors.Is(err, ErrCut) {
			t.Fatalf("post-close error = %v, want ErrCut", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read still blocked after close")
	}
	if st := f.Stats(); st.Cuts != 1 || st.Live != 0 {
		t.Fatalf("stats = %+v, want 1 cut, 0 live", st)
	}
}

func TestFaultCutAfterDuration(t *testing.T) {
	t.Parallel()
	f := NewFaulter()
	f.SetPlan(FaultPlan{CutAfter: 20 * time.Millisecond, Mode: FaultReset})
	c1, c2 := net.Pipe()
	w := f.Wrap(c1)
	defer w.Close()
	defer c2.Close()

	done := make(chan error, 1)
	go func() {
		_, err := w.Read(make([]byte, 8))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("timed cut produced no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed cut never fired")
	}
}

func TestFaultDialFlakiness(t *testing.T) {
	t.Parallel()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	f := NewFaulter()
	dial := f.Dialer(func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) })
	f.FailNextDials(2)
	for i := 0; i < 2; i++ {
		if _, err := dial(); !errors.Is(err, ErrDialFault) {
			t.Fatalf("dial %d: err = %v, want ErrDialFault", i, err)
		}
	}
	c, err := dial()
	if err != nil {
		t.Fatalf("dial after flaky window: %v", err)
	}
	c.Close()
	st := f.Stats()
	if st.Dials != 3 || st.DialsFailed != 2 {
		t.Fatalf("stats = %+v, want 3 dials / 2 failed", st)
	}
}

// TestFaultTamperFlipsByte: a tamper cut flips the one byte read at the
// armed offset and keeps the connection; an offset crossed by a write
// flips the next byte read instead.
func TestFaultTamperFlipsByte(t *testing.T) {
	t.Parallel()
	f := NewFaulter()
	f.SetPlan(FaultPlan{CutAfterBytes: 10, Mode: FaultTamper})
	c1, c2 := net.Pipe()
	w := f.Wrap(c1)
	defer w.Close()
	defer c2.Close()

	read := func(want string) []byte {
		t.Helper()
		go c2.Write([]byte(want))
		buf := make([]byte, len(want))
		if _, err := io.ReadFull(w, buf); err != nil {
			t.Fatalf("read through a tampered connection: %v", err)
		}
		return buf
	}
	got := read("0123456789abcdef")
	want := []byte("0123456789abcdef")
	want[9] ^= 0xff // the 10th byte moved
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
	if got := read("more"); string(got) != "more" {
		t.Fatalf("read %q after the tamper, want it intact", got)
	}

	// The second connection's offset falls in a write: the next byte
	// read is the one flipped.
	f.SetPlan(FaultPlan{CutAfterBytes: 4, Mode: FaultTamper})
	c3, c4 := net.Pipe()
	w2 := f.Wrap(c3)
	defer w2.Close()
	defer c4.Close()
	go io.ReadFull(c4, make([]byte, 8))
	if _, err := w2.Write([]byte("written!")); err != nil {
		t.Fatal(err)
	}
	go c4.Write([]byte("xyz"))
	buf := make([]byte, 3)
	if _, err := io.ReadFull(w2, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'x'^0xff || string(buf[1:]) != "yz" {
		t.Fatalf("read %q after a write crossed the offset, want the first byte flipped", buf)
	}
	if st := f.Stats(); st.Tampers != 2 || st.Cuts != 0 || st.Live != 2 {
		t.Fatalf("stats = %+v, want 2 tampers, no cut, 2 live", st)
	}
}
