package main

import (
	"sync"
	"testing"
)

func span(id, parent uint64, start, end int64) Span {
	return Span{ID: id, Parent: parent, Start: start, End: end}
}

// Self time subtracts the union of the children, so overlapping
// children (concurrent work a parent waited on) are not subtracted
// twice, and a child sticking out past its parent is clipped.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, 0, 100),
		span(2, 1, 10, 30),
		span(3, 1, 20, 50),  // overlaps span 2
		span(4, 1, 90, 120), // runs past the parent's end
		span(5, 2, 15, 20),  // grandchild: counts against span 2 only
		span(6, 0, 200, 210),
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 20 - 5, 3: 30, 4: 30, 5: 5, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	for _, c := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{5, 5}}, 0},
		{[][2]int64{{30, 40}, {0, 10}}, 20},
		{[][2]int64{{0, 50}, {10, 20}}, 50},
		{[][2]int64{{-10, 10}, {95, 200}}, 15},
	} {
		if got := covered(0, 100, c.ivs); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestTracerLinksParentsPerGoroutine(t *testing.T) {
	tr := newTracer()
	endA := tr.begin("a")
	endB := tr.begin("b")
	endB()
	endA()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr.begin("c")()
	}()
	wg.Wait()
	byName := map[string]Span{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	a, b, c := byName["a"], byName["b"], byName["c"]
	if a.Parent != 0 || a.Req != a.ID {
		t.Errorf("root span %+v: want no parent and its own request id", a)
	}
	if b.Parent != a.ID || b.Req != a.Req {
		t.Errorf("child span %+v: want parent %d, request %d", b, a.ID, a.Req)
	}
	if c.Parent != 0 || c.Req == a.Req {
		t.Errorf("span on another goroutine %+v joined request %d", c, a.Req)
	}
	if b.Start < a.Start || b.End > a.End {
		t.Errorf("child %+v not inside parent %+v", b, a)
	}
	var none *Tracer
	none.begin("x")() // the nil tracer is a no-op
}
