//go:build !race

package oncrpc

import (
	"context"
	"testing"
)

// TestCallAllocsGroundTruth pins the heap allocations of one loopback
// call with a 256-byte argument and result. testing.AllocsPerRun reads
// the process-wide malloc count, so the figure covers the whole round
// trip: the caller, the client's readLoop and the server's ServeConn
// and dispatch. (Under -race sync.Pool drops Puts at random, hence the
// build tag.)
func TestCallAllocsGroundTruth(t *testing.T) {
	const budget = 3
	if testing.Short() {
		t.Skip("loopback RPC stack in -short mode")
	}
	c := benchStack(t)
	ctx := context.Background()
	args := &echoArgs{S: string(make([]byte, 256))}
	var out echoArgs
	// Warm the connection and the record pools before counting.
	for i := 0; i < 8; i++ {
		if err := c.Call(ctx, procEcho, args, &out); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := c.Call(ctx, procEcho, args, &out); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Errorf("allocs per call = %.1f, budget %d", avg, budget)
	} else if avg < budget {
		t.Logf("allocs per call = %.1f, under the budget of %d: lower the pin", avg, budget)
	}
}
