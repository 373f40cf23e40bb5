package main

import (
	"reflect"
	"testing"
)

func TestUnionBusyTime(t *testing.T) {
	cases := []struct {
		in   []interval
		want []interval
	}{
		{nil, nil},
		{[]interval{{0, 10}}, []interval{{0, 10}}},
		{[]interval{{5, 7}, {0, 3}}, []interval{{0, 3}, {5, 7}}},   // disjoint, unsorted
		{[]interval{{0, 5}, {3, 8}, {8, 9}}, []interval{{0, 9}}},   // overlapping and touching
		{[]interval{{0, 10}, {2, 3}, {4, 5}}, []interval{{0, 10}}}, // nested
		{[]interval{{0, 2}, {1, 4}, {6, 7}, {6, 9}}, []interval{{0, 4}, {6, 9}}},
	}
	for _, c := range cases {
		if got := union(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("union(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := total(union([]interval{{0, 5}, {3, 8}, {20, 21}})); got != 9 {
		t.Errorf("busy time = %d, want 9", got)
	}
}

func TestOverlap(t *testing.T) {
	a := union([]interval{{0, 10}, {20, 30}})
	b := union([]interval{{5, 25}, {28, 40}})
	if got := overlap(a, b); got != 5+5+2 {
		t.Errorf("overlap = %d, want 12", got)
	}
	if got := overlap(a, nil); got != 0 {
		t.Errorf("overlap with nothing = %d", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		children []interval
		want     int64
	}{
		{nil, 100},
		{[]interval{{110, 120}, {150, 160}}, 80},
		{[]interval{{110, 150}, {130, 170}}, 40},             // overlapping children count once
		{[]interval{{90, 110}, {190, 250}}, 80},              // children sticking out are clipped
		{[]interval{{0, 300}}, 0},                            // fully covered
		{[]interval{{110, 120}, {110, 120}, {115, 118}}, 90}, // duplicates and nesting
	}
	for _, c := range cases {
		if got := uncovered([]interval{parent}, union(c.children)); got != c.want {
			t.Errorf("self time with children %v = %d, want %d", c.children, got, c.want)
		}
	}
}

func TestMaxOverlap(t *testing.T) {
	if got := maxOverlap([]interval{{0, 10}, {5, 15}, {9, 12}, {20, 30}}); got != 3 {
		t.Errorf("maxOverlap = %d, want 3", got)
	}
	if got := maxOverlap([]interval{{0, 10}, {10, 20}}); got != 1 {
		t.Errorf("touching spans: maxOverlap = %d, want 1", got)
	}
}

func TestEnclosing(t *testing.T) {
	parents := []span{{start: 0, end: 100}, {start: 10, end: 50}, {start: 60, end: 90}}
	children := []span{{start: 20, end: 30}, {start: 55, end: 58}, {start: 70, end: 95}, {start: 200, end: 210}}
	// Latest-starting enclosing parent wins; the third child sticks out
	// of parent 2 and falls back to parent 0; the fourth has none.
	want := []int{1, 0, 0, -1}
	if got := enclosing(parents, children); !reflect.DeepEqual(got, want) {
		t.Errorf("enclosing = %v, want %v", got, want)
	}
}
