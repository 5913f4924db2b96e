package main

import (
	"fmt"
	"net/http"
	"time"

	"rfdump/internal/history"
)

// queryRate is the DVR client's open-loop request rate: half the
// default per-host quota of 20 requests/s, so a 429 is a failure of the
// program, not of the load.
const queryRate = 10

// queryClient is the open-loop DVR client: it pages a stream's
// detections and packets by cursor and fetches the snippet behind a
// recent detection, one request every 1/queryRate s, each timed from
// its due time. Its fields belong to the goroutine running run until
// run returns.
type queryClient struct {
	base   string
	stream uint64
	probe  *sseProbe

	lat       []float64 // ms from due to response
	late      []float64 // ms the request started behind its due time
	attempted int64
	failed    int64
	throttled int64
	pageBad   string // first paging-order violation
	detCursor uint64
	pktCursor uint64
	lastDet   uint64
	lastPkt   uint64
}

type page[T any] struct {
	Detections []T    `json:"detections"`
	Packets    []T    `json:"packets"`
	Next       uint64 `json:"next_cursor"`
	More       bool   `json:"more"`
}

// run issues requests until stop closes.
func (q *queryClient) run(t0 time.Time, stop <-chan struct{}) {
	sched := every(t0, time.Second/queryRate)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-time.After(time.Until(sched.due(i))):
		}
		started := time.Now()
		status, err := q.issue(i)
		done := time.Now()
		q.attempted++
		q.late = append(q.late, float64(sched.late(i, started))/1e6)
		q.lat = append(q.lat, float64(sched.sinceDue(i, done))/1e6)
		if err != nil {
			q.failed++
			if status == http.StatusTooManyRequests {
				q.throttled++
			}
		}
	}
}

// issue sends request i: a detections page, a packets page, or a
// snippet fetch, in turn.
func (q *queryClient) issue(i int) (int, error) {
	switch i % 3 {
	case 0:
		var p page[history.DetectionRecord]
		status, err := getJSON(fmt.Sprintf("%s/api/streams/%d/detections?cursor=%d&limit=100", q.base, q.stream, q.detCursor), &p)
		if err != nil {
			return status, err
		}
		for _, r := range p.Detections {
			q.order("detections", &q.lastDet, r.Seq)
		}
		q.advance(&q.detCursor, p.Next, len(p.Detections))
		return status, nil
	case 1:
		var p page[history.PacketEvent]
		status, err := getJSON(fmt.Sprintf("%s/api/streams/%d/packets?cursor=%d&limit=100", q.base, q.stream, q.pktCursor), &p)
		if err != nil {
			return status, err
		}
		for _, r := range p.Packets {
			q.order("packets", &q.lastPkt, r.Seq)
		}
		q.advance(&q.pktCursor, p.Next, len(p.Packets))
		return status, nil
	default:
		seq := q.recentDetection()
		if seq == 0 {
			return getJSON(fmt.Sprintf("%s/api/history", q.base), nil)
		}
		return getJSON(fmt.Sprintf("%s/api/streams/%d/snippets/%d", q.base, q.stream, seq), nil)
	}
}

// order records a paging violation: seqs must rise strictly across
// every page of one cursor walk.
func (q *queryClient) order(kind string, last *uint64, seq uint64) {
	if seq <= *last && q.pageBad == "" {
		q.pageBad = fmt.Sprintf("%s seq %d served after %d", kind, seq, *last)
	}
	*last = seq
}

func (q *queryClient) advance(cursor *uint64, next uint64, n int) {
	if n > 0 && next > 0 {
		*cursor = next
	}
}

// recentDetection is the newest detection the probe saw at least 100 ms
// ago (its snippet is banked by then), or 0.
func (q *queryClient) recentDetection() uint64 {
	cut := time.Now().Add(-100 * time.Millisecond)
	q.probe.mu.Lock()
	defer q.probe.mu.Unlock()
	for i := len(q.probe.events) - 1; i >= 0; i-- {
		a := q.probe.events[i]
		if a.ev.Type == "detection" && a.at.Before(cut) {
			return a.ev.Seq
		}
	}
	return 0
}
