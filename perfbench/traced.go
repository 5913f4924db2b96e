package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rfdump/internal/cluster"
	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/flowgraph"
	"rfdump/internal/history"
	"rfdump/internal/iq"
	"rfdump/internal/metrics"
	"rfdump/internal/server"
	"rfdump/internal/serving"
	"rfdump/internal/wire"
)

// tracedStore wraps the history.Store a hub or a fused ledger is
// handed: each call is a span, a child of the hub or ledger call that
// made it. Appends are named prefix+"."+kind.
type tracedStore struct {
	history.Store
	t      *Tracer
	prefix string
}

func (s tracedStore) AppendDetection(r *history.DetectionRecord) error {
	defer s.t.begin(s.prefix + ".detection")()
	return s.Store.AppendDetection(r)
}

func (s tracedStore) AppendPacket(e *history.PacketEvent) error {
	defer s.t.begin(s.prefix + ".packet")()
	return s.Store.AppendPacket(e)
}

func (s tracedStore) AppendTile(t *history.Tile) error {
	defer s.t.begin(s.prefix + ".tile")()
	return s.Store.AppendTile(t)
}

func (s tracedStore) AppendSnippet(sn *history.Snippet) error {
	defer s.t.begin(s.prefix + ".snippet")()
	return s.Store.AppendSnippet(sn)
}

func (s tracedStore) QueryDetections(q history.Query) ([]history.DetectionRecord, uint64, bool, error) {
	defer s.t.begin("history.query.detections")()
	return s.Store.QueryDetections(q)
}

func (s tracedStore) QueryPackets(q history.Query) ([]history.PacketEvent, uint64, bool, error) {
	defer s.t.begin("history.query.packets")()
	return s.Store.QueryPackets(q)
}

func (s tracedStore) Snippet(stream, det uint64) (*history.Snippet, error) {
	defer s.t.begin("history.query.snippet")()
	return s.Store.Snippet(stream, det)
}

// tracedAPI wraps a tier's HTTP handler: DVR query routes are spans, so
// the store queries they make are children and the difference is the
// encode, quota and HTTP cost.
func tracedAPI(t *Tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Path
		if strings.HasPrefix(p, "/api/streams/") && (strings.HasSuffix(p, "/detections") || strings.HasSuffix(p, "/packets") || strings.Contains(p, "/snippets/")) {
			defer t.begin("serving.query_handler")()
		}
		h.ServeHTTP(w, r)
	})
}

func okProbe() (any, bool) { return map[string]string{"status": "ok"}, true }

// inproc is a traced tier: the same public module calls the binaries
// make, composed in this process so each hand-off can be wrapped. Its
// fields are read once closer has waited for its goroutines.
type inproc struct {
	api    string
	ingest string
	reg    *metrics.Registry
	closer func()
	once   sync.Once

	// leaf only
	eng     *core.Engine
	hub     *server.Hub
	mu      sync.Mutex
	lags    []float64 // ms from block hand-off to the hub call
	results []*core.Result
	liveMax int64
	// aggregator only
	ingests, dups int64
}

func (p *inproc) apiURL() string     { return "http://" + p.api }
func (p *inproc) ingestAddr() string { return p.ingest }
func (p *inproc) cpu() float64       { return 0 } // per-tier CPU comes from the untraced pass
func (p *inproc) peakRSS() float64   { return 0 }
func (p *inproc) stop() error        { p.kill(); return nil }
func (p *inproc) kill()              { p.once.Do(p.closer) }

// serveAPI serves h on a loopback port and returns the address and a
// close func.
func serveAPI(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { _ = srv.Serve(ln); close(done) }()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			_ = srv.Close()
		}
		<-done
	}, nil
}

// startTracedLeaf composes a node as rfdumpd's server.Daemon does — a
// wire.Server feeding one Session per connection into a Hub over a
// history.Store, served by the shared serving.Core — from the benchmark,
// so the listener, the session's block reader, the hub calls and the
// store are each wrapped in spans. With dir set it is the DVR (disk
// segment store, capture, tiles); otherwise a tree leaf (the default
// in-memory history, no demodulation), as startRfdumpd runs them.
func startTracedLeaf(tr *Tracer, dir string) (tier, error) {
	reg := metrics.NewRegistry()
	cfg, err := core.ParseDetectors(detectorList)
	if err != nil {
		return nil, err
	}
	cfg.Metrics = reg
	clock := iq.NewClock(iq.DefaultSampleRate)
	var factories []core.AnalyzerFactory
	if dir != "" {
		factories = core.RegistryAnalyzerFactories(analyzerOptions())
	}
	eng := core.NewEngine(clock, cfg, factories...)
	var store history.Store
	if dir != "" {
		store, err = history.OpenDisk(history.DiskConfig{Dir: dir, MaxBytes: -1, Registry: reg})
	} else {
		store, err = history.NewMemory(history.MemoryConfig{DetectionCap: 4096, PacketCap: 2048, Registry: reg})
	}
	if err != nil {
		return nil, err
	}
	hub, err := server.NewHub(server.HubConfig{Clock: clock, Store: tracedStore{Store: store, t: tr, prefix: "history.append"}, Registry: reg})
	if err != nil {
		store.Close()
		return nil, err
	}
	p := &inproc{reg: reg, eng: eng, hub: hub}
	ws := wire.NewServer(func(c *wire.Conn) { p.handle(tr, c, dir != "") })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hub.Close()
		return nil, err
	}
	p.ingest = ln.Addr().String()
	go func() { _ = ws.Serve(tracedListener{Listener: ln, t: tr}) }()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/streams", func(w http.ResponseWriter, r *http.Request) {
		serving.WriteJSON(w, map[string]any{"streams": hub.Streams()})
	})
	(&serving.Core{
		Broker: hub.Broker(), Ledger: serving.StoreLedger{Store: hub.Store()}, Store: hub.Store(),
		Quota: serving.NewQuota(0, 0, reg), Registry: reg, FeedComment: ": traced node feed",
		Health: okProbe, Ready: okProbe, Refresh: func() {},
	}).Register(mux)
	api, closeAPI, err := serveAPI(tracedAPI(tr, mux))
	if err != nil {
		ws.Close()
		hub.Close()
		return nil, err
	}
	p.api = api
	p.closer = func() {
		ws.Drain()
		ws.Wait()
		closeAPI()
		_ = hub.Close()
	}
	return p, nil
}

// handle mirrors the daemon's per-connection path with spans.
func (p *inproc) handle(tr *Tracer, c *wire.Conn, dvr bool) {
	meta, err := c.Meta()
	if err != nil {
		return
	}
	st, ep := p.hub.Attach(server.AttachSpec{
		Remote: c.RemoteAddr(), Meta: meta, Counts: c.Counts, LastFrame: c.LastFrame,
		Detach: func() { c.Close() },
	})
	var (
		ends []iq.Tick
		at   []time.Time
	)
	lag := func(end iq.Tick) {
		i := sort.Search(len(ends), func(i int) bool { return ends[i] >= end })
		if i < len(ends) {
			p.mu.Lock()
			p.lags = append(p.lags, float64(time.Since(at[i]))/1e6)
			p.mu.Unlock()
		}
	}
	scfg := core.StreamConfig{NoRetain: true}
	if dvr {
		scfg.CaptureMaxSamples = dvrCaptureMax
		scfg.OnDetectionCapture = func(det core.Detection, span iq.Interval, burst iq.Samples) {
			lag(det.Span.End)
			defer tr.begin("server.hub_detection")()
			p.hub.DetectionCaptured(st, det, span, burst)
		}
	} else {
		scfg.OnDetection = func(det core.Detection) {
			lag(det.Span.End)
			defer tr.begin("server.hub_detection")()
			p.hub.Detection(st, det)
		}
	}
	scfg.OnOutput = func(item flowgraph.Item) {
		if pk, ok := item.(demod.Packet); ok {
			defer tr.begin("server.hub_packet")()
			p.hub.Packet(st, pk)
		}
	}
	scfg.OnSessionStart = func(id uint64) { p.hub.SessionStarted(st, ep, id) }
	scfg.OnSessionEnd = func(id uint64, res *core.Result, err error) { p.hub.SessionEnded(st, ep, res, err) }
	sess, err := p.eng.NewSession(scfg)
	if err != nil {
		p.hub.SessionEnded(st, ep, nil, err)
		return
	}
	var tiles *tileFolder
	if dvr {
		tiles = &tileFolder{hub: p.hub, stream: st.ID(), rate: iq.DefaultSampleRate, t: tr}
	}
	pool := p.eng.Pool()
	var total iq.Tick
	src := &handoffReader{inner: &tracedReader{inner: c, t: tr, name: "wire.read_block"}, after: func(b iq.Samples) {
		total += iq.Tick(len(b))
		ends = append(ends, total)
		at = append(at, time.Now())
		if tiles != nil {
			tiles.append(b)
		}
		if live := pool.Stats().Live; live > p.liveMax {
			p.liveMax = live
		}
	}}
	end := tr.begin("core.session_run")
	res, err := sess.Run(src)
	end()
	p.mu.Lock()
	if err == nil {
		p.results = append(p.results, res)
	}
	p.mu.Unlock()
}

// handoffReader reports each block it hands to the session.
type handoffReader struct {
	inner core.BlockReader
	after func(iq.Samples)
}

func (r *handoffReader) ReadBlock(dst iq.Samples) (int, error) {
	n, err := r.inner.ReadBlock(dst)
	if n > 0 {
		r.after(dst[:n])
	}
	return n, err
}

// tileFolder folds the ingest flow into waterfall tiles the way the
// daemon's ingest tee does (one tile per 1<<19 samples, 64 bins of
// mean power), handing each to Hub.Tile under a span.
type tileFolder struct {
	hub    *server.Hub
	stream uint64
	rate   int
	t      *Tracer
	acc    [64]float64
	n      int
	off    int64
}

const tileSpan, tileBins = 1 << 19, 64

func (f *tileFolder) append(s iq.Samples) {
	per := tileSpan / tileBins
	for _, v := range s {
		re, im := real(v), imag(v)
		f.acc[f.n/per] += float64(re*re + im*im)
		f.n++
		if f.n == tileSpan {
			bins := make([]float32, tileBins)
			for i, a := range f.acc {
				bins[i] = float32(a / float64(per))
				f.acc[i] = 0
			}
			end := f.t.begin("server.hub_tile")
			f.hub.Tile(&history.Tile{Stream: f.stream, TimeS: float64(f.off) / float64(f.rate), Start: f.off, SamplesPerBin: int64(per), Bins: bins})
			end()
			f.off += tileSpan
			f.n = 0
		}
	}
}

// startTracedAgg composes an aggregator as cluster.Aggregator does — a
// Manager subscribed to the nodes feeding a FusedLedger over a disk
// store, republished on a Broker and served by serving.Core — so the
// ledger's Ingest, its WAL store and the publish are each spans. The
// publish happens after Ingest under one lock, as the ledger itself
// publishes inside its lock, so events still leave in WAL order.
func startTracedAgg(tr *Tracer, nodes, dir string) (tier, error) {
	reg := metrics.NewRegistry()
	disk, err := history.OpenDisk(history.DiskConfig{Dir: dir, Registry: reg})
	if err != nil {
		return nil, err
	}
	store := tracedStore{Store: disk, t: tr, prefix: "history.wal_append"}
	broker := serving.NewBrokerSharded(256, 1024, 0, reg)
	ledger, err := cluster.NewFusedLedger(cluster.LedgerConfig{Store: store, Registry: reg})
	if err != nil {
		return nil, err
	}
	p := &inproc{reg: reg}
	var mu sync.Mutex
	mgr := cluster.NewManager(cluster.ManagerConfig{
		Registry: reg,
		OnEvent: func(node string, ev serving.Event) {
			if (ev.Type != "detection" && ev.Type != "detection-update") || ev.Detection == nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			end := tr.begin("cluster.ledger_ingest")
			wal, res := ledger.Ingest(node, ev.Stream, ev.Detection)
			end()
			p.ingests++
			if res == cluster.Duplicate {
				p.dups++
			}
			if wal == nil {
				return
			}
			typ := "detection"
			if wal.Merge {
				typ = "detection-update"
			}
			pub := *wal
			defer tr.begin("serving.publish")()
			broker.Publish(serving.Event{Seq: wal.Seq, Type: typ, Stream: wal.Stream, Detection: &pub})
		},
	})
	for _, spec := range strings.Split(nodes, ",") {
		n, a, ok := strings.Cut(spec, "=")
		if !ok {
			mgr.Close()
			ledger.Close()
			return nil, errors.New("bad node spec " + spec)
		}
		mgr.Add(n, a)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/nodes", func(w http.ResponseWriter, r *http.Request) {
		serving.WriteJSON(w, map[string]any{"nodes": mgr.Nodes()})
	})
	mux.HandleFunc("/api/detections", func(w http.ResponseWriter, r *http.Request) {
		serving.WriteJSON(w, map[string]any{"detections": ledger.Fuser().Recent(0)})
	})
	(&serving.Core{
		Broker: broker, Ledger: serving.StoreLedger{Store: store}, Store: store,
		Quota: serving.NewQuota(0, 0, reg), Registry: reg, FeedComment: ": traced fused feed",
		Health: okProbe, Ready: okProbe, Refresh: func() {},
	}).Register(mux)
	api, closeAPI, err := serveAPI(tracedAPI(tr, mux))
	if err != nil {
		mgr.Close()
		ledger.Close()
		return nil, err
	}
	p.api = api
	p.closer = func() {
		mgr.Close()
		closeAPI()
		_ = ledger.Close()
	}
	return p, nil
}
