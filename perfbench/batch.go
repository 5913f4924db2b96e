package main

import (
	"maps"
	"time"

	"rfdump/internal/arch"
	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/experiments"
	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/metrics"
	"rfdump/internal/protocols"
	_ "rfdump/internal/protocols/builtin"
	"rfdump/internal/truth"
)

// detectorList is the configuration rfdump and rfdumpd run by default.
const detectorList = "timing,phase"

func analyzerOptions() protocols.AnalyzerOptions {
	return protocols.AnalyzerOptions{LAP: experiments.PiconetLAP, UAP: experiments.PiconetUAP, Channels: 8}
}

// Counts are one loop's per-family detections and CRC-ok packets.
type Counts struct {
	Detections map[string]int `json:"detections"`
	PacketsOK  map[string]int `json:"packets_ok"`
}

func newCounts() Counts {
	return Counts{Detections: map[string]int{}, PacketsOK: map[string]int{}}
}

func (c Counts) equal(o Counts) bool {
	return maps.Equal(c.Detections, o.Detections) && maps.Equal(c.PacketsOK, o.PacketsOK)
}

// reference runs the offline analyzer (rfdump's batch mode) over one
// loop: the counts every loop of the session must reproduce.
func reference(a *air) (Counts, error) {
	cfg, err := core.ParseDetectors(detectorList)
	if err != nil {
		return Counts{}, err
	}
	mon := arch.NewRFDump("reference", a.Clock, cfg, core.RegistryAnalyzers(analyzerOptions())...)
	out, err := mon.Process(a.Sensors[0])
	if err != nil {
		return Counts{}, err
	}
	c := newCounts()
	for _, d := range out.Detections {
		c.Detections[d.Family.FamilyName()]++
	}
	for _, p := range out.Packets {
		if p.Valid {
			c.PacketsOK[p.Proto.FamilyName()]++
		}
	}
	return c, nil
}

// BatchResult is what one batch-mix session reports.
type BatchResult struct {
	Loops     int               `json:"loops"`
	Samples   int64             `json:"samples"`
	CPUS      float64           `json:"cpu_s"`
	PeakRSS   float64           `json:"peak_rss_mb"`
	PerLoop   []Counts          `json:"per_loop"`
	PacketLag []float64         `json:"packet_lag_ms"` // CRC-ok packets
	DetLag    []float64         `json:"det_lag_ms"`
	LoopWall  []float64         `json:"loop_wall_s"` // per session
	First     []truth.Detection `json:"first"`       // loop 0's detections, for the miss rate
	PoolGets  int64             `json:"pool_gets"`
	PoolNews  int64             `json:"pool_news"`
	LiveMax   int64             `json:"pool_live_max"`
}

// runBatch is the batch-mix closed loop: one Engine configured as
// rfdumpd configures it, and for each replayed loop one Session reading
// the in-memory loop unpaced, until seconds have passed (finishing the
// loop in progress). A session per loop makes every loop reproduce the
// offline reference exactly: one session over the looped stream
// carries detector state across the seams and drifts from any one-loop
// reference. A detection's delivery latency runs from the hand-off of
// the block holding its last sample to the detection callback. With tr
// set the reader and each session are wrapped in spans; reg, when set,
// meters the engine. The last session's Result is returned: with a
// registry the engine's block counters are shared by all its sessions,
// so its Stats and Busy are the run's totals.
func runBatch(a *air, seconds float64, tr *Tracer, reg *metrics.Registry) (*BatchResult, *core.Result, error) {
	cfg, err := core.ParseDetectors(detectorList)
	if err != nil {
		return nil, nil, err
	}
	cfg.Metrics = reg
	eng := core.NewEngine(a.Clock, cfg, core.RegistryAnalyzerFactories(analyzerOptions())...)
	pool := eng.Pool()
	out := &BatchResult{}
	var (
		last   *core.Result
		handed []time.Time // hand-off time of block i of the current loop
	)
	cpu0 := processCPU()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for loop := 0; loop == 0 || time.Now().Before(deadline); loop++ {
		c := newCounts()
		first := loop == 0
		// The inline scheduler runs both callbacks, and the reader, on the
		// goroutine that calls Run.
		scfg := core.StreamConfig{
			NoRetain: true,
			OnDetection: func(d core.Detection) {
				c.Detections[d.Family.FamilyName()]++
				out.DetLag = append(out.DetLag, lagMS(handed, d.Span.End))
				if first {
					out.First = append(out.First, truth.Detection{Family: d.Family, Span: d.Span, Detector: d.Detector, Confidence: d.Confidence, Channel: d.Channel})
				}
			},
			OnOutput: func(item flowgraph.Item) {
				if p, ok := item.(demod.Packet); ok && p.Valid {
					c.PacketsOK[p.Proto.FamilyName()]++
					out.PacketLag = append(out.PacketLag, lagMS(handed, p.Span.End))
				}
			},
		}
		sess, err := eng.NewSession(scfg)
		if err != nil {
			return nil, nil, err
		}
		handed = handed[:0]
		src := &loopReader{loop: a.Sensors[0], after: func() {
			handed = append(handed, time.Now())
			if live := pool.Stats().Live; live > out.LiveMax {
				out.LiveMax = live
			}
		}}
		var reader core.BlockReader = src
		if tr != nil {
			reader = &tracedReader{inner: src, t: tr, name: "core.block_read"}
		}
		end := tr.begin("core.session_run")
		ls := time.Now()
		res, err := sess.Run(reader)
		out.LoopWall = append(out.LoopWall, time.Since(ls).Seconds())
		end()
		if err != nil {
			return nil, nil, err
		}
		last = res
		out.PerLoop = append(out.PerLoop, c)
		out.Samples += int64(res.StreamLen)
	}
	out.CPUS = processCPU() - cpu0
	out.Loops = len(out.PerLoop)
	st := pool.Stats()
	out.PoolGets, out.PoolNews = st.Gets, st.News
	out.PeakRSS = selfPeakRSSMB()
	return out, last, nil
}

// lagMS is the time since the block holding sample end-1 was handed
// out, given hand-off times per block.
func lagMS(handed []time.Time, end iq.Tick) float64 {
	i := int((end - 1) / iq.ChunkSamples)
	if i >= len(handed) {
		i = len(handed) - 1
	}
	return float64(time.Since(handed[i])) / 1e6
}

// tracedReader wraps the core.BlockReader a session is handed: every
// ReadBlock is a span, so reads the source makes underneath it (a
// socket behind a wire decoder) become its children. A session reads
// from one goroutine, which the reader looks up once.
type tracedReader struct {
	inner core.BlockReader
	t     *Tracer
	name  string
	g     int64
}

func (r *tracedReader) ReadBlock(dst iq.Samples) (int, error) {
	if r.g == 0 {
		r.g = goid()
	}
	defer r.t.beginOn(r.g, r.name)()
	return r.inner.ReadBlock(dst)
}
