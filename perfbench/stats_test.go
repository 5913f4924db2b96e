package main

import (
	"testing"
	"time"

	"rfdump/internal/iq"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	v := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- {
		v = append(v, float64(i))
	}
	d := summarize(v)
	if d.N != 1000 || d.P50 != 500 || d.P99 != 990 || d.TailP != 99 {
		t.Fatalf("summarize(1..1000) = %+v", d)
	}
	if d := summarize(nil); d.N != 0 || d.P50 != 0 || d.TailP != 0 {
		t.Fatalf("summarize(nil) = %+v", d)
	}
	// 100 query latencies support p90 at most: the p99 says so.
	if m := summarize(v[:100]).p99("ms"); m.N != 100 || m.TailP != 90 {
		t.Fatalf("p99 of 100 samples = %+v, want n 100 and tail percentile 90", m)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// An open loop charges a stall to every request queued behind it: the
// second request is late by what the first overran, and its latency is
// measured from its due time, not from when it finally went out.
func TestScheduleChargesStallsToLaterRequests(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := every(t0, 100*time.Millisecond)
	if got := s.due(0); !got.Equal(t0.Add(100 * time.Millisecond)) {
		t.Fatalf("due(0) = %v", got)
	}
	// Request 0 goes out on time and takes 250 ms.
	if late := s.late(0, s.due(0)); late != 0 {
		t.Errorf("on-time request late by %v", late)
	}
	done0 := s.due(0).Add(250 * time.Millisecond)
	if lat := s.sinceDue(0, done0); lat != 250*time.Millisecond {
		t.Errorf("request 0 latency %v", lat)
	}
	// Request 1 was due at +200 ms but could only start at +350 ms and
	// took 10 ms of service.
	if late := s.late(1, done0); late != 150*time.Millisecond {
		t.Errorf("request 1 late by %v, want 150ms", late)
	}
	if lat := s.sinceDue(1, done0.Add(10*time.Millisecond)); lat != 160*time.Millisecond {
		t.Errorf("request 1 latency %v, want 160ms (150 queued + 10 service)", lat)
	}
	// Sleep granularity can send a request early; that is not lateness.
	if late := s.late(2, s.due(2).Add(-time.Millisecond)); late != 0 {
		t.Errorf("early request late by %v", late)
	}
}

func TestFrameDueTimes(t *testing.T) {
	g := &generator{clock: iq.NewClock(8_000_000)}
	if got, want := g.frameDue(0), 512*time.Microsecond; got != want {
		t.Errorf("frame 0 due at +%v, want +%v (4096 samples at 8 Msps)", got, want)
	}
	for _, c := range []struct {
		tick int64
		want int
	}{{1, 0}, {4096, 0}, {4097, 1}, {8192, 1}, {8193, 2}} {
		if got := frameOf(c.tick); got != c.want {
			t.Errorf("frameOf(%d) = %d, want %d", c.tick, got, c.want)
		}
	}
}

func TestTallyFailRatio(t *testing.T) {
	tl := newTally()
	if tl.Ratio() != 0 {
		t.Fatal("empty tally has a failure ratio")
	}
	tl.attempt("frames", 100)
	tl.fail("frames", 2)
	tl.attempt("queries", 50)
	tl.fail("queries", 1)
	tl.fail("queries", 0)
	tl.attempt("events", 50)
	a, f := tl.Totals()
	if a != 200 || f != 3 {
		t.Fatalf("totals %d/%d, want 3/200", f, a)
	}
	if got := tl.Ratio(); got != 3.0/200 {
		t.Fatalf("ratio %v, want %v", got, 3.0/200)
	}
	if _, ok := tl.Failed["events"]; ok {
		t.Fatal("a zero failure count created an entry")
	}
}
