package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one request
// share Req; Parent is the span that was open on the same goroutine
// when this one started (0 for a root span, which opens a new request).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is a
// valid no-op tracer, which is how untraced runs pay nothing.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	next  uint64
	open  map[int64][]*Span // goroutine id → stack of open spans
}

func newTracer() *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, 1<<16), open: map[int64][]*Span{}}
}

// goid parses the current goroutine's id from its stack header. Go
// exposes no goroutine-local storage; this is how a wrapper finds the
// span its caller opened without the program passing a context.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return id
}

// begin opens a span named name as a child of the span open on this
// goroutine. The returned func closes it. Finding the goroutine costs
// about 5 µs; wrappers called once per sample block use beginOn.
func (t *Tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	return t.beginOn(goid(), name)
}

// beginOn is begin for a caller that knows it runs on goroutine g.
func (t *Tracer) beginOn(g int64, name string) func() {
	t.mu.Lock()
	t.next++
	s := &Span{ID: t.next, Name: name}
	if st := t.open[g]; len(st) > 0 {
		top := st[len(st)-1]
		s.Parent, s.Req = top.ID, top.Req
	} else {
		s.Req = s.ID
	}
	t.open[g] = append(t.open[g], s)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.epoch))
	return func() {
		s.End = int64(time.Since(t.epoch))
		t.mu.Lock()
		st := t.open[g]
		t.open[g] = st[:len(st)-1]
		if len(st) == 1 {
			delete(t.open, g)
		}
		t.spans = append(t.spans, *s)
		t.mu.Unlock()
	}
}

// Spans returns the closed spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans dumps spans as JSON lines to path.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval covered by its children. Children may overlap each
// other (a parent that waits on concurrent work); the covered part is
// the union of the children's intervals clipped to the parent.
func selfTimes(spans []Span) map[uint64]int64 {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	have := false
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e <= s {
			continue
		}
		if have && s <= curE {
			if e > curE {
				curE = e
			}
			continue
		}
		if have {
			total += curE - curS
		}
		curS, curE, have = s, e, true
	}
	if have {
		total += curE - curS
	}
	return total
}

// byName groups a per-span value (duration or self time) by span name.
func byName(spans []Span, value func(Span) int64) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(value(s)))
	}
	return out
}

// tracedListener wraps the net.Listener the ingest server is handed, so
// every read the server's decoder makes from a connection is a child
// span ("wire.conn_read") of whatever span is open on its goroutine.
type tracedListener struct {
	net.Listener
	t *Tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t}, nil
}

// tracedConn is read only by the goroutine serving the connection, so
// it looks that goroutine up once.
type tracedConn struct {
	net.Conn
	t *Tracer
	g int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if c.g == 0 {
		c.g = goid()
	}
	defer c.t.beginOn(c.g, "wire.conn_read")()
	return c.Conn.Read(p)
}
