package main

import (
	"math"
	"testing"
)

func TestQuietRate(t *testing.T) {
	// Fewer than two blocks' worth of operations: the plain rate.
	few := []float64{100, 100, 400, 200}
	if got, want := quietRate(few), 4*1e3/800.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("plain rate: got %g, want %g", got, want)
	}
	// 800 operations of 2 ms, the middle half of the run slowed to 4 ms
	// by a neighbour: the mean rate drops by a third, the quiet rate
	// does not move.
	lat := make([]float64, 800)
	for i := range lat {
		lat[i] = 2
		if i >= 200 && i < 600 {
			lat[i] = 4
		}
	}
	if got := quietRate(lat); math.Abs(got-500) > 1e-9 {
		t.Errorf("half the run disturbed: got %g, want 500", got)
	}
	// A cost every block pays counts in full.
	for i := range lat {
		lat[i] = 2
		if i%10 == 0 {
			lat[i] = 12
		}
	}
	if got := quietRate(lat); math.Abs(got-1e3/3) > 1e-9 {
		t.Errorf("a stall every tenth operation: got %g, want %g", got, 1e3/3)
	}
}
