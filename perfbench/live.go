package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"rfdump/internal/history"
	"rfdump/internal/iq"
	"rfdump/internal/wire"
)

var httpClient = &http.Client{Timeout: 10 * time.Second}

// getJSON fetches url into v, returning the HTTP status.
func getJSON(url string, v any) (int, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// waitFor polls cond every 20 ms until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	end := time.Now().Add(timeout)
	for time.Now().Before(end) {
		if cond() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return cond()
}

// event is the part of a live-feed event the probes read.
type event struct {
	Seq       uint64                   `json:"seq"`
	Type      string                   `json:"type"`
	Detection *history.DetectionRecord `json:"detection"`
}

// arrival is one live-feed event and when the probe read it.
type arrival struct {
	ev event
	at time.Time
}

// sseProbe is the one subscriber that measures delivery: it reads a
// tier's /api/live and timestamps every event on arrival.
type sseProbe struct {
	mu     sync.Mutex
	events []arrival
	cancel context.CancelFunc
	done   chan error
}

// subscribe opens url (an /api/live URL) and returns once the feed's
// hello comment arrived, so no event published afterwards is missed.
func subscribe(url string) (*sseProbe, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	p := &sseProbe{cancel: cancel, done: make(chan error, 1)}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET %s: feed closed before hello", url)
	}
	go func() {
		defer resp.Body.Close()
		for sc.Scan() {
			line := sc.Text()
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			at := time.Now()
			var ev event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				p.done <- fmt.Errorf("live feed: %w", err)
				return
			}
			p.mu.Lock()
			p.events = append(p.events, arrival{ev: ev, at: at})
			p.mu.Unlock()
		}
		p.done <- nil
	}()
	return p, nil
}

// snapshot returns the events read so far.
func (p *sseProbe) snapshot() []arrival {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]arrival(nil), p.events...)
}

// count returns how many events of type typ were read.
func (p *sseProbe) count(typ string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, a := range p.events {
		if a.ev.Type == typ {
			n++
		}
	}
	return n
}

// close stops the probe and waits for its reader.
func (p *sseProbe) close() {
	p.cancel()
	<-p.done
}

// frameSamples is the wire frame size the generator sends: the wire
// default, which puts 0.5 ms of air in each frame at 8 Msps.
const frameSamples = wire.DefaultFrameSamples

// generator streams rendered loops to one or more ingest addresses, one
// connection per sensor, from a single goroutine, paced at the sample
// rate: frame f of every sensor is due when its last sample would have
// left the radio, t0 + (f+1)·frame/rate. Frames repeat the loop at
// advancing sample offsets.
type generator struct {
	clock   iq.Clock
	loops   []iq.Samples
	clients []*wire.Client
	sched   schedule
	frames  int
	late    []float64 // ms behind due, per frame
	sent    int64     // samples per sensor
}

func newGenerator(clock iq.Clock, loops []iq.Samples, addrs []string) (*generator, error) {
	g := &generator{clock: clock, loops: loops}
	for i, a := range addrs {
		c, err := wire.DialTimeout(a, wire.StreamMeta{StreamID: uint32(i + 1), Rate: clock.Rate, CenterHz: 2_437_000_000},
			wire.DefaultDialTimeout, wire.DefaultWriteTimeout)
		if err != nil {
			g.close()
			return nil, err
		}
		c.SetFrameSamples(frameSamples)
		g.clients = append(g.clients, c)
	}
	return g, nil
}

// frameDue is the offset of frame f's due time from t0.
func (g *generator) frameDue(f int) time.Duration {
	return g.clock.Duration(iq.Tick((f + 1) * frameSamples))
}

// frameOf is the frame that carries sample tick-1 (the last sample of
// a span ending at tick).
func frameOf(tick int64) int { return int((tick - 1) / frameSamples) }

// run sends seconds of air from t0.
func (g *generator) run(t0 time.Time, seconds float64) error {
	g.sched = schedule{start: t0, offset: g.frameDue}
	g.frames = int(seconds * float64(g.clock.Rate) / frameSamples)
	g.late = make([]float64, 0, g.frames)
	buf := make(iq.Samples, frameSamples)
	for f := 0; f < g.frames; f++ {
		due := g.sched.due(f)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		g.late = append(g.late, float64(g.sched.late(f, time.Now()))/1e6)
		for i, c := range g.clients {
			loop := g.loops[i]
			pos := (f * frameSamples) % len(loop)
			n := copy(buf, loop[pos:])
			copy(buf[n:], loop) // wrap to the loop start
			if err := c.SendFrame(buf); err != nil {
				return fmt.Errorf("sensor %d frame %d: %w", i, f, err)
			}
		}
		g.sent += frameSamples
	}
	return nil
}

// close ends every stream cleanly (End frame) and closes the sockets.
func (g *generator) close() error {
	var first error
	for _, c := range g.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// deliverLatencies times each first detection event from the due time
// of the frame that carried the detection's last sample.
func deliverLatencies(g *generator, evs []arrival) []float64 {
	var lat []float64
	for _, a := range evs {
		if a.ev.Type != "detection" || a.ev.Detection == nil {
			continue
		}
		f := frameOf(a.ev.Detection.AbsEnd)
		if f < 0 || f >= g.frames {
			continue
		}
		lat = append(lat, float64(a.at.Sub(g.sched.due(f)))/1e6)
	}
	return lat
}
