// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package adopts it as its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// It counts goroutines, so it sees a goroutine blocked on anything — a
// channel, a lock, a condition variable, I/O — but only on the paths
// the tests run.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Grace is how long Main lets the tests' goroutines wind down after
// the last test returns.
const Grace = 10 * time.Second

// Main runs the tests and then, if they passed, fails the binary when
// more goroutines are running than before the first test, printing
// every goroutine's stack. A fuzzing run (-fuzz, or a fuzz worker) is
// not checked: the fuzzing engine starts an os/signal goroutine that
// never exits.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !fuzzing() {
		if err := Settle(base, Grace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// fuzzing reports whether the binary runs as a fuzzing coordinator or
// worker. The flags are parsed by m.Run.
func fuzzing() bool {
	fuzz, worker := flag.Lookup("test.fuzz"), flag.Lookup("test.fuzzworker")
	return fuzz != nil && fuzz.Value.String() != "" ||
		worker != nil && worker.Value.String() == "true"
}

// Settle waits up to grace for the number of goroutines to fall to
// base. If it does not, the error holds every goroutine's stack.
func Settle(base int, grace time.Duration) error {
	deadline := time.Now().Add(grace)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("leakcheck: %d goroutines running %s after the tests, %d before them:\n%s",
				runtime.NumGoroutine(), grace, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}
