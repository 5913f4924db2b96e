package main

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"rfdump/internal/history"
	"rfdump/internal/server"
)

// tier is one process (or, traced, one in-process composition) of the
// monitor under test.
type tier interface {
	apiURL() string
	ingestAddr() string
	cpu() float64 // CPU seconds since ready
	peakRSS() float64
	stop() error
	kill()
}

// dvrCaptureMax caps each captured snippet at 2 ms of air, which holds
// the preamble and headers of every burst in the mix. At the default
// cap of 65536 samples the DVR appends about 31 MB/s, and on a 2-core
// host with a shared disk the ingest path then stalls on those appends
// for hundreds of milliseconds at a time, so delivery latency varies
// by a factor of six between runs and cannot gate a change.
const dvrCaptureMax = 16384

var rfdumpdReady = regexp.MustCompile(`ingest on (\S+), API on http://(\S+) `)

// startRfdumpd runs the daemon as an operator would. With dvrDir set it
// is the spectrum DVR: segment store, -capture snippets and waterfall
// tiles (on by default). Otherwise it is a tree leaf: the default
// in-memory history, classifying only (-no-demod). A tree carries
// detections, not packets, and two demodulating leaves plus both
// aggregators would hold a 2-core host at 75% busy, where a little CPU
// stolen by a neighbour leaves them behind real time; demodulation is
// measured by batch-mix and leaf-dvr.
func startRfdumpd(rc *runCtx, name, dvrDir string) (tier, error) {
	args := []string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-q"}
	if dvrDir != "" {
		// Unbounded retention: the run checks that the store holds every
		// record the stream produced. Snippets are capped at dvrCaptureMax.
		args = append(args, "-store-dir", dvrDir, "-capture", "-capture-max", strconv.Itoa(dvrCaptureMax), "-store-max-bytes", "-1")
	} else {
		args = append(args, "-no-demod")
	}
	c, m, err := startChild(name, filepath.Join(rc.bin, "rfdumpd"), args, rfdumpdReady, nil, nil)
	if err != nil {
		return nil, err
	}
	c.ingest, c.api = m[1], m[2]
	return c, nil
}

// streams reads a node's /api/streams.
func streams(t tier) ([]server.StreamInfo, error) {
	var out struct {
		Streams []server.StreamInfo `json:"streams"`
	}
	_, err := getJSON(t.apiURL()+"/api/streams", &out)
	return out.Streams, err
}

type leafSetup struct {
	air  *air
	leaf tier
}

// runLeafDVR is the leaf-dvr workload: one sensor paced at real time
// into one rfdumpd DVR, with the open-loop query client beside it.
func runLeafDVR(rc *runCtx, tr *Tracer) (*outcome, *liveRun, error) {
	o := newOutcome()
	s, setupS, err := setupMedian(rc, func(rep int) (*leafSetup, error) {
		a, err := render(rc.workload, rc.seed)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(rc.dir, fmt.Sprintf("leaf-%d", rep))
		var leaf tier
		if tr != nil {
			leaf, err = startTracedLeaf(tr, dir)
		} else {
			leaf, err = startRfdumpd(rc, "rfdumpd", dir)
		}
		if err != nil {
			return nil, err
		}
		return &leafSetup{air: a, leaf: leaf}, nil
	}, func(s *leafSetup) { s.leaf.kill() })
	if err != nil {
		return nil, nil, err
	}
	a, leaf := s.air, s.leaf
	defer leaf.kill()
	o.e2e["setup_s"] = metric{Value: setupS, Unit: "s"}

	probe, err := subscribe(leaf.apiURL() + "/api/live")
	if err != nil {
		return nil, nil, err
	}
	defer probe.close()
	gen, err := newGenerator(a.Clock, a.Sensors, []string{leaf.ingestAddr()})
	if err != nil {
		return nil, nil, err
	}
	qc := &queryClient{base: leaf.apiURL(), stream: 1, probe: probe}
	self0, host, rt0 := processCPU(), startHostLoad(), readRuntime()
	t0 := time.Now().Add(20 * time.Millisecond)
	cpu0 := leaf.cpu()
	stopQ := make(chan struct{})
	qdone := make(chan struct{})
	go func() { qc.run(t0, stopQ); close(qdone) }()
	genErr := gen.run(t0, rc.seconds)
	close(stopQ)
	<-qdone
	if err := gen.close(); genErr == nil {
		genErr = err
	}
	wall := time.Since(t0).Seconds()
	if genErr != nil {
		return nil, nil, genErr
	}

	// Drain: the stream ends cleanly, then every event reaches the probe.
	var st []server.StreamInfo
	ended := waitFor(20*time.Second, func() bool {
		st, err = streams(leaf)
		return err == nil && len(st) == 1 && !st[0].Active
	})
	if !ended {
		return nil, nil, fmt.Errorf("leaf stream did not end: %v %v", st, err)
	}
	waitFor(10*time.Second, func() bool {
		return int64(probe.count("detection")) >= st[0].Detections && int64(probe.count("packet")) >= st[0].Packets
	})
	cpu := leaf.cpu() - cpu0
	selfCPU, rt1 := processCPU()-self0, readRuntime()
	o.facts["host"] = host.stop()
	rss := leaf.peakRSS()
	var hs history.Stats
	if _, err := getJSON(leaf.apiURL()+"/api/history", &hs); err != nil {
		return nil, nil, err
	}
	var tiles struct {
		Tiles []history.Tile `json:"tiles"`
	}
	if _, err := getJSON(leaf.apiURL()+"/api/streams/1/tiles?limit=100000", &tiles); err != nil {
		return nil, nil, err
	}
	evs := probe.snapshot()
	lr := &liveRun{gen: gen, events: evs, air: a, selfCPU: selfCPU, rt: [2]rtStats{rt0, rt1}, tiers: map[string]tier{"leaf": leaf}}
	if tr == nil {
		if err := leaf.stop(); err != nil {
			return nil, nil, err
		}
	}

	airS := float64(gen.sent) / float64(a.Clock.Rate)
	o.e2e["analyze_msps"] = metric{Value: float64(st[0].Wire.Samples) / wall / 1e6, Unit: "Msample/s"}
	o.e2e["cpu_per_air"] = metric{Value: cpu / airS, Unit: "CPU-s/air-s"}
	lat := deliverLatencies(gen, evs)
	deliverMetrics(o, lat)
	o.e2e["peak_rss_mb"] = metric{Value: rss, Unit: "MB"}
	ql := summarize(qc.lat)
	o.e2e["query_p50_ms"] = metric{Value: ql.P50, Unit: "ms", N: ql.N}
	o.e2e["query_p99_ms"] = ql.p99("ms")
	late := summarize(append(append([]float64(nil), gen.late...), qc.late...))
	o.facts["gen.late_p99_ms"] = late.P99
	o.facts["air_s"] = airS
	o.facts["total_cpu_per_air"] = (cpu + selfCPU) / airS
	o.facts["cpu_per_air.leaf"] = cpu / airS
	o.facts["loop_air_s"] = float64(a.Len()) / float64(a.Clock.Rate)
	o.facts["records"] = map[string]int64{"detections": hs.Detections, "packets": hs.Packets, "tiles": hs.Tiles, "snippets": hs.Snippets}
	o.facts["store_bytes"] = hs.Bytes
	o.facts["render_s"] = a.Render.Seconds()

	// Failures: frames the wire layer rejected or lost, live events the
	// probe never saw, queries that were not 2xx.
	o.tally.attempt("frames", int64(gen.frames))
	o.tally.fail("frames", st[0].Wire.BadFrames+st[0].Wire.SeqGaps)
	o.tally.attempt("queries", qc.attempted)
	o.tally.fail("queries", qc.failed)
	o.facts["throttled"] = qc.throttled

	// Every sequence number the hub allocated is accounted for exactly
	// once: published live (detections, packets), banked as the snippet
	// right after its detection, or stored as a tile.
	seen := map[uint64]int{}
	var detEvents, pktEvents int64
	for _, a := range evs {
		if a.ev.Seq == 0 {
			continue // stream lifecycle events carry no seq
		}
		seen[a.ev.Seq]++
		switch a.ev.Type {
		case "detection":
			detEvents++
			seen[a.ev.Seq+1]++ // its snippet
		case "packet":
			pktEvents++
		}
	}
	for _, t := range tiles.Tiles {
		seen[t.Seq]++
	}
	last := hs.LastSeq
	for seq := range seen {
		last = max(last, seq) // lifecycle events take seqs the store never sees
	}
	var missing, dup, extra int64
	for seq := uint64(1); seq <= last; seq++ {
		switch n := seen[seq]; {
		case n == 0:
			missing++
		case n > 1:
			dup++
		}
	}
	for seq := range seen {
		if seq == 0 || seq > last {
			extra++
		}
	}
	o.tally.attempt("events", int64(last))
	o.tally.fail("events", missing+dup)
	o.check("leaf.sse_seqs_contiguous", missing == 0 && dup == 0 && extra == 0,
		fmt.Sprintf("%d missing, %d duplicated, %d beyond last seq %d", missing, dup, extra, last))
	o.check("leaf.store_equals_emitted",
		hs.Detections == st[0].Detections && hs.Detections == detEvents && hs.Packets == st[0].Packets && hs.Packets == pktEvents && hs.Snippets == detEvents,
		fmt.Sprintf("store %d/%d/%d snippets, stream %d/%d, live %d/%d", hs.Detections, hs.Packets, hs.Snippets, st[0].Detections, st[0].Packets, detEvents, pktEvents))
	o.check("leaf.query_pages_ordered", qc.pageBad == "" && qc.lastDet > 0, qc.pageBad)
	o.check("leaf.detections_seen", detEvents > 0 && len(lat) > 0, "no detection reached the live feed")
	return o, lr, nil
}

// liveRun keeps what a traced pass needs from the live workload.
type liveRun struct {
	gen     *generator
	events  []arrival
	air     *air
	tiers   map[string]tier
	hops    map[string]*sseProbe
	selfCPU float64    // this process's CPU over the measurement
	rt      [2]rtStats // runtime counters at its start and end
}
