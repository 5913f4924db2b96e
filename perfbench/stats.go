package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles the tail rule chooses among,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that has at
// least ten samples beyond it among n samples, or 0 when even the
// median does not (fewer than 20 samples).
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Dist summarises one latency sample: its median and 99th percentile,
// the sample count, and the highest percentile the count supports by
// the ten-beyond rule.
type Dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	TailP float64 `json:"tail_percentile"`
}

// p99 is the 99th percentile as a reported metric. Its TailP says
// whether the sample supports it: below 99, fewer than ten samples lie
// beyond it.
func (d Dist) p99(unit string) metric {
	return metric{Value: d.P99, Unit: unit, N: d.N, TailP: d.TailP}
}

// summarize sorts values in place and summarises them.
func summarize(values []float64) Dist {
	sort.Float64s(values)
	d := Dist{N: len(values), TailP: tailPercentile(len(values))}
	if d.N == 0 {
		return d
	}
	d.P50 = percentile(values, 50)
	d.P99 = percentile(values, 99)
	return d
}

// quantilePoints are the percentiles a report lists for a latency
// distribution, so its shape is visible beside the gated p50 and p99.
var quantilePoints = []float64{50, 80, 90, 95, 97, 98, 99, 99.5}

// quantiles returns values at quantilePoints (sorting values in place).
func quantiles(values []float64) map[string]float64 {
	sort.Float64s(values)
	out := map[string]float64{}
	for _, p := range quantilePoints {
		out[fmt.Sprintf("p%g", p)] = percentile(values, p)
	}
	return out
}

// deliverMetrics reports a delivery-latency sample: p50 and p99 with
// its count, and the quantile list that shows the distribution's shape.
func deliverMetrics(o *outcome, lat []float64) {
	o.facts["deliver_quantiles_ms"] = quantiles(lat)
	d := summarize(lat)
	o.e2e["deliver_p50_ms"] = metric{Value: d.P50, Unit: "ms", N: d.N}
	o.e2e["deliver_p99_ms"] = d.p99("ms")
}

// median of values (mean of the middle two for an even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// schedule is an open-loop timetable: event i is due at start +
// offset(i), whatever happened to event i-1. Latency and lateness are
// measured from the due time, so a stall that delays later events is
// charged to them too.
type schedule struct {
	start  time.Time
	offset func(i int) time.Duration
}

// every returns a schedule with events every period, the first one due
// one period after start.
func every(start time.Time, period time.Duration) schedule {
	return schedule{start: start, offset: func(i int) time.Duration { return time.Duration(i+1) * period }}
}

// due is the time event i was scheduled for.
func (s schedule) due(i int) time.Time { return s.start.Add(s.offset(i)) }

// late is how far behind its due time event i started (never negative:
// an event sent early by the sleep granularity is on time).
func (s schedule) late(i int, started time.Time) time.Duration {
	if d := started.Sub(s.due(i)); d > 0 {
		return d
	}
	return 0
}

// sinceDue is the latency of event i completing at done, timed from
// its due time rather than from when it was actually issued.
func (s schedule) sinceDue(i int, done time.Time) time.Duration { return done.Sub(s.due(i)) }

// Tally counts the operations a run attempted and the ones that failed,
// by cause, so fail_ratio states its numerator and denominator.
type Tally struct {
	Attempted map[string]int64 `json:"attempted"`
	Failed    map[string]int64 `json:"failed"`
}

func newTally() *Tally {
	return &Tally{Attempted: map[string]int64{}, Failed: map[string]int64{}}
}

// attempt records n operations of kind attempted.
func (t *Tally) attempt(kind string, n int64) { t.Attempted[kind] += n }

// fail records n failed operations of kind. A failure is one of the
// attempted operations, so the kind must also be attempted.
func (t *Tally) fail(kind string, n int64) {
	if n > 0 {
		t.Failed[kind] += n
	}
}

// Totals returns the summed attempted and failed counts.
func (t *Tally) Totals() (attempted, failed int64) {
	for _, n := range t.Attempted {
		attempted += n
	}
	for _, n := range t.Failed {
		failed += n
	}
	return attempted, failed
}

// Ratio is failed ÷ attempted (0 with nothing attempted).
func (t *Tally) Ratio() float64 {
	a, f := t.Totals()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}
