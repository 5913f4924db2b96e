package main

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"rfdump/internal/cluster"
	"rfdump/internal/iq"
	"rfdump/internal/metrics"
	"rfdump/internal/protocols"
	"rfdump/internal/server"
	"rfdump/internal/truth"
)

var rfdumpcReady = regexp.MustCompile(`API on http://(\S+),`)

// startRfdumpc runs an aggregator over nodes (name=host:port list) with
// a durable fused ledger in storeDir.
func startRfdumpc(rc *runCtx, name, nodes, storeDir string) (tier, error) {
	c, m, err := startChild(name, filepath.Join(rc.bin, "rfdumpc"),
		[]string{"-http", "127.0.0.1:0", "-nodes", nodes, "-store-dir", storeDir}, rfdumpcReady, nil, nil)
	if err != nil {
		return nil, err
	}
	c.api = m[1]
	return c, nil
}

// treeTiers names the tiers of tree-fanin in start order.
var treeTiers = []string{"leaf0", "leaf1", "mid", "root"}

type treeSetup struct {
	air   *air
	tiers map[string]tier
}

func (s *treeSetup) kill() {
	for _, t := range s.tiers {
		t.kill()
	}
}

// connected reports how many node subscriptions an aggregator holds.
func connected(t tier) int {
	var out struct {
		Nodes []cluster.NodeStatus `json:"nodes"`
	}
	if _, err := getJSON(t.apiURL()+"/api/nodes", &out); err != nil {
		return -1
	}
	n := 0
	for _, s := range out.Nodes {
		if s.Connected {
			n++
		}
	}
	return n
}

// startTree starts two leaves, a mid aggregator over both and a root
// over the mid, and waits until every subscription is up.
func startTree(rc *runCtx, tr *Tracer, rep int) (map[string]tier, error) {
	ts := map[string]tier{}
	fail := func(err error) (map[string]tier, error) {
		for _, t := range ts {
			t.kill()
		}
		return nil, err
	}
	dir := func(n string) string { return filepath.Join(rc.dir, fmt.Sprintf("%s-%d", n, rep)) }
	for _, n := range treeTiers[:2] {
		var (
			t   tier
			err error
		)
		if tr != nil {
			t, err = startTracedLeaf(tr, "")
		} else {
			t, err = startRfdumpd(rc, n, "")
		}
		if err != nil {
			return fail(err)
		}
		ts[n] = t
	}
	hostOf := func(t tier) string { return strings.TrimPrefix(t.apiURL(), "http://") }
	nodes := map[string]string{
		"mid":  "leaf0=" + hostOf(ts["leaf0"]) + ",leaf1=" + hostOf(ts["leaf1"]),
		"root": "",
	}
	for _, n := range treeTiers[2:] {
		if n == "root" {
			nodes[n] = "mid=" + hostOf(ts["mid"])
		}
		var (
			t   tier
			err error
		)
		if tr != nil {
			t, err = startTracedAgg(tr, nodes[n], dir(n))
		} else {
			t, err = startRfdumpc(rc, n, nodes[n], dir(n))
		}
		if err != nil {
			return fail(err)
		}
		ts[n] = t
	}
	if !waitFor(20*time.Second, func() bool { return connected(ts["mid"]) == 2 && connected(ts["root"]) == 1 }) {
		return fail(fmt.Errorf("tree subscriptions not up"))
	}
	return ts, nil
}

// fusedCount reads an aggregator's fused-detection counter.
func fusedCount(t tier) (int64, error) {
	var snap metrics.Snapshot
	_, err := getJSON(t.apiURL()+"/api/metricz?format=json", &snap)
	return snap.Counters["cluster/detections_fused"], err
}

// runTreeFanin is the tree-fanin workload: the same ether rendered at
// two sensor positions, each paced at real time into its own leaf
// rfdumpd, fused by a mid rfdumpc and again by a root rfdumpc; the
// probe subscribes to the root.
func runTreeFanin(rc *runCtx, tr *Tracer) (*outcome, *liveRun, error) {
	o := newOutcome()
	s, setupS, err := setupMedian(rc, func(rep int) (*treeSetup, error) {
		a, err := render(rc.workload, rc.seed)
		if err != nil {
			return nil, err
		}
		ts, err := startTree(rc, tr, rep)
		if err != nil {
			return nil, err
		}
		return &treeSetup{air: a, tiers: ts}, nil
	}, func(s *treeSetup) { s.kill() })
	if err != nil {
		return nil, nil, err
	}
	defer s.kill()
	a, ts := s.air, s.tiers
	o.e2e["setup_s"] = metric{Value: setupS, Unit: "s"}

	probe, err := subscribe(ts["root"].apiURL() + "/api/live?types=detection")
	if err != nil {
		return nil, nil, err
	}
	defer probe.close()
	var hops map[string]*sseProbe
	if tr != nil {
		// Traced only: the same detection timed on every tier's feed.
		hops = map[string]*sseProbe{}
		for _, n := range []string{"leaf0", "leaf1", "mid"} {
			p, err := subscribe(ts[n].apiURL() + "/api/live?types=detection")
			if err != nil {
				return nil, nil, err
			}
			defer p.close()
			hops[n] = p
		}
	}
	gen, err := newGenerator(a.Clock, a.Sensors, []string{ts["leaf0"].ingestAddr(), ts["leaf1"].ingestAddr()})
	if err != nil {
		return nil, nil, err
	}
	cpu0 := map[string]float64{}
	for n, t := range ts {
		cpu0[n] = t.cpu()
	}
	self0, host, rt0 := processCPU(), startHostLoad(), readRuntime()
	t0 := time.Now().Add(20 * time.Millisecond)
	genErr := gen.run(t0, rc.seconds)
	if err := gen.close(); genErr == nil {
		genErr = err
	}
	wall := time.Since(t0).Seconds()
	if genErr != nil {
		return nil, nil, genErr
	}

	// Drain: both streams end, then the fused counts settle.
	leafDet := map[string]int64{}
	var samples int64
	for _, n := range treeTiers[:2] {
		var st []server.StreamInfo
		if !waitFor(20*time.Second, func() bool {
			st, err = streams(ts[n])
			return err == nil && len(st) == 1 && !st[0].Active
		}) {
			return nil, nil, fmt.Errorf("%s stream did not end: %v %v", n, st, err)
		}
		leafDet[n] = st[0].Detections
		samples += st[0].Wire.Samples
		o.tally.attempt("frames", int64(gen.frames))
		o.tally.fail("frames", st[0].Wire.BadFrames+st[0].Wire.SeqGaps)
	}
	var midN, rootN int64
	stable := 0
	waitFor(20*time.Second, func() bool {
		m, err1 := fusedCount(ts["mid"])
		r, err2 := fusedCount(ts["root"])
		if err1 == nil && err2 == nil && m == midN && r == rootN && m == r && int64(probe.count("detection")) == r {
			stable++
		} else {
			stable = 0
		}
		midN, rootN = m, r
		return stable >= 10
	})
	lr := &liveRun{gen: gen, air: a, tiers: ts, hops: hops, selfCPU: processCPU() - self0, rt: [2]rtStats{rt0, readRuntime()}}
	o.facts["host"] = host.stop()
	var cpu, rss float64
	tierCPU := map[string]float64{}
	for n, t := range ts {
		c := t.cpu() - cpu0[n]
		tierCPU[n] = c
		cpu += c
		if r := t.peakRSS(); r > rss {
			rss = r
		}
	}
	var fused struct {
		Detections []cluster.FusedDetection `json:"detections"`
	}
	if _, err := getJSON(ts["root"].apiURL()+"/api/detections?evidence=1", &fused); err != nil {
		return nil, nil, err
	}
	evs := probe.snapshot()
	lr.events = evs
	if tr == nil {
		for _, n := range []string{"root", "mid", "leaf0", "leaf1"} {
			if err := ts[n].stop(); err != nil {
				return nil, nil, err
			}
		}
	}

	airS := float64(gen.sent) / float64(a.Clock.Rate)
	o.e2e["analyze_msps"] = metric{Value: float64(samples) / wall / 1e6, Unit: "Msample/s"}
	o.e2e["cpu_per_air"] = metric{Value: cpu / airS, Unit: "CPU-s/air-s"}
	lat := deliverLatencies(gen, evs)
	deliverMetrics(o, lat)
	o.e2e["peak_rss_mb"] = metric{Value: rss, Unit: "MB"}
	o.facts["gen.late_p99_ms"] = summarize(append([]float64(nil), gen.late...)).P99
	o.facts["air_s"] = airS
	o.facts["total_cpu_per_air"] = (cpu + lr.selfCPU) / airS
	o.facts["loop_air_s"] = float64(a.Len()) / float64(a.Clock.Rate)
	o.facts["records"] = map[string]int64{"leaf0": leafDet["leaf0"], "leaf1": leafDet["leaf1"], "mid_fused": midN, "root_fused": rootN}
	o.facts["render_s"] = a.Render.Seconds()
	for n, c := range tierCPU {
		o.facts["cpu_per_air."+n] = c / airS
	}
	o.e2e["miss_rate"] = metric{Value: fusedMissRate(a, fused.Detections, gen.sent), Unit: "ratio", N: len(a.Master.Records)}

	// Every leaf sighting is evidence at the root, exactly once.
	evidence := map[string]int64{}
	seenEv := map[string]bool{}
	var dupEv int64
	for _, fd := range fused.Detections {
		for _, ev := range fd.Evidence {
			key := fmt.Sprintf("%s/%d", ev.Node, ev.Seq)
			if seenEv[key] {
				dupEv++
			}
			seenEv[key] = true
			evidence[ev.Node]++
		}
	}
	var missingEv int64
	for _, n := range treeTiers[:2] {
		o.tally.attempt("leaf_detections", leafDet[n])
		if miss := leafDet[n] - evidence[n]; miss > 0 {
			missingEv += miss
		}
	}
	o.tally.fail("leaf_detections", missingEv+dupEv)
	o.check("tree.root_fused_equals_mid", midN == rootN && rootN > 0 && int64(len(fused.Detections)) == rootN,
		fmt.Sprintf("mid %d, root %d, root ledger %d", midN, rootN, len(fused.Detections)))
	o.check("tree.leaf_detections_at_root", missingEv == 0 && dupEv == 0 && evidence["leaf0"] == leafDet["leaf0"] && evidence["leaf1"] == leafDet["leaf1"],
		fmt.Sprintf("leaf detections %v, root evidence %v, %d duplicated", leafDet, evidence, dupEv))
	o.tally.attempt("root_events", rootN)
	o.tally.fail("root_events", rootN-int64(probe.count("detection")))
	return o, lr, nil
}

// fusedMissRate is the share of visible 802.11b and Bluetooth master
// truth transmissions, over every complete loop sent, that no fused
// detection at the root overlaps.
func fusedMissRate(a *air, fused []cluster.FusedDetection, sent int64) float64 {
	L := iq.Tick(a.Len())
	loops := int(iq.Tick(sent) / L)
	ts := &truth.Set{TraceLen: iq.Tick(loops) * L, Clock: a.Clock}
	for k := 0; k < loops; k++ {
		for _, r := range a.Master.Records {
			r.Span.Start += iq.Tick(k) * L
			r.Span.End += iq.Tick(k) * L
			ts.Add(r)
		}
	}
	dets := make([]truth.Detection, 0, len(fused))
	for _, fd := range fused {
		dets = append(dets, truth.Detection{Family: familyID(fd.Family), Span: iq.Interval{Start: iq.Tick(fd.AbsStart), End: iq.Tick(fd.AbsEnd)}})
	}
	return missRate(ts, dets)
}

// familyID maps a record's family label back to the family the truth
// matcher scores.
func familyID(name string) protocols.ID {
	for _, id := range []protocols.ID{protocols.WiFi80211b1M, protocols.Bluetooth} {
		if id.FamilyName() == name {
			return id
		}
	}
	return 0
}
