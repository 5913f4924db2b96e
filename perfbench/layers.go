package main

import (
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"strings"

	"rfdump/internal/core"
	rfmetrics "rfdump/internal/metrics"
)

// runTraced is the traced run: first the untraced pass (its end-to-end
// numbers, checks and per-process CPU), then the same workload composed
// in this process with spans, from which the per-layer metrics come.
func runTraced(rc *runCtx) (*outcome, error) {
	o, err := runUntraced(rc)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	trc := *rc
	trc.reps = 1
	trc.dir = filepath.Join(rc.dir, "traced")

	var (
		results []*core.Result
		regs    []*rfmetrics.Registry
		lags    []float64
		rt      [2]rtStats // runtime counters around the traced measurement
		cpu     float64    // this process's CPU over the traced measurement
		samples float64    // samples analysed (all streams)
		airS    float64
		lr      *liveRun
		tpass   *outcome
	)
	l := o.layer
	switch rc.workload {
	case "batch-mix":
		a, err := render(rc.workload, rc.seed)
		if err != nil {
			return nil, err
		}
		reg := rfmetrics.NewRegistry()
		rt[0] = readRuntime()
		br, last, err := runBatch(a, rc.seconds, tr, reg)
		if err != nil {
			return nil, err
		}
		results = []*core.Result{last}
		rt[1] = readRuntime()
		regs, lags, cpu, samples = []*rfmetrics.Registry{reg}, br.DetLag, br.CPUS, float64(br.Samples)
		airS = samples / float64(a.Clock.Rate)
		l["blocks.news_per_get"] = metric{Value: ratio(float64(br.PoolNews), float64(br.PoolGets)), Unit: "ratio"}
		l["blocks.live_max"] = metric{Value: float64(br.LiveMax), Unit: "count"}
	case "leaf-dvr":
		tpass, lr, err = runLeafDVR(&trc, tr)
	default:
		tpass, lr, err = runTreeFanin(&trc, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	spans := tr.Spans()
	if lr != nil {
		for _, c := range tpass.checks {
			o.check("traced."+c.Name, c.OK, c.Detail)
		}
		cpu, rt = lr.selfCPU, lr.rt
		airS = float64(lr.gen.sent) / float64(lr.air.Clock.Rate)
		var news, gets, live, frames, bad float64
		for _, t := range lr.tiers {
			p := t.(*inproc)
			regs = append(regs, p.reg)
			if p.hub == nil {
				continue
			}
			lags = append(lags, p.lags...)
			results = append(results, p.results...)
			st := p.eng.Pool().Stats()
			news, gets = news+float64(st.News), gets+float64(st.Gets)
			live = max(live, float64(p.liveMax))
			for _, s := range p.hub.Streams() {
				frames += float64(s.Wire.Frames)
				bad += float64(s.Wire.BadFrames)
				samples += float64(s.Wire.Samples)
			}
			if hs := p.hub.Store().Stats(); hs.Kind == "segment" {
				l["history.append_bytes_per_record"] = metric{Value: ratio(float64(hs.Bytes), float64(hs.Appended)), Unit: "B"}
			}
		}
		l["blocks.news_per_get"] = metric{Value: ratio(news, gets), Unit: "ratio"}
		l["blocks.live_max"] = metric{Value: live, Unit: "count"}
		l["wire.read_ns_per_frame"] = metric{Value: ratio(sumSelf(spans, "wire.read_block")*1e9, frames), Unit: "ns"}
		l["wire.bad_frames"] = metric{Value: bad, Unit: "count"}
		hopMetrics(l, lr)
	}

	// Scheduler overhead: the share of each session's time outside its
	// source reads (a live session mostly waits on its socket) that no
	// block accounts for as busy.
	var busyS float64
	for _, r := range results {
		busyS += r.Busy.Seconds()
	}
	running := sumDur(spans, "core.session_run") - sumDur(spans, "wire.read_block") - sumDur(spans, "core.block_read")
	l["flowgraph.sched_overhead_frac"] = metric{Value: 1 - ratio(busyS, running), Unit: "ratio"}

	// Counters the program already keeps: per-block busy time and item
	// counts from each session's Result.Stats, CRC verdicts and SSE and
	// quota counters from the registries.
	busy, items := map[string]float64{}, map[string]float64{}
	for _, r := range results {
		for _, st := range r.Stats {
			busy[st.Name] += float64(st.Busy)
			items[st.Name] += float64(st.Items)
		}
	}
	perItem := func(block string) float64 { return ratio(busy[block], items[block]) }
	for _, d := range []string{"peak-detector", "802.11-timing", "802.11-phase", "bt-timing", "bt-phase"} {
		l["core."+d+".ns_per_chunk"] = metric{Value: perItem(d), Unit: "ns", N: int(items[d])}
	}
	l["core.dispatcher.ns_per_request"] = metric{Value: perItem("dispatcher"), Unit: "ns", N: int(items["dispatcher"])}
	for _, d := range []string{"802.11-demod", "bt-demod"} {
		l["demod."+d+".ns_per_request"] = metric{Value: perItem(d), Unit: "ns", N: int(items[d])}
	}
	o.facts["block_stats"] = map[string]any{"busy_ns": busy, "items": items}
	counters := mergedCounters(regs)
	var pass, fail float64
	for name, v := range counters {
		if strings.HasPrefix(name, "demod/") && strings.HasSuffix(name, "/crc_pass") {
			pass += float64(v)
		}
		if strings.HasPrefix(name, "demod/") && strings.HasSuffix(name, "/crc_fail") {
			fail += float64(v)
		}
	}
	l["demod.crc_pass_ratio"] = metric{Value: ratio(pass, pass+fail), Unit: "ratio"}
	l["serving.dropped_events"] = metric{Value: float64(counters["server/sse/dropped_events"]), Unit: "count"}
	l["serving.throttled"] = metric{Value: float64(counters["server/api/throttled"]), Unit: "count"}
	ld := summarize(lags)
	l["core.detect_lag_ms.p50"] = metric{Value: ld.P50, Unit: "ms", N: ld.N}
	l["core.detect_lag_ms.p99"] = ld.p99("ms")
	l["runtime.allocs_per_msample"] = metric{Value: ratio(rt[1].mallocs-rt[0].mallocs, samples/1e6), Unit: "count"}
	l["runtime.gc_cpu_frac"] = metric{Value: ratio(rt[1].gcCPU-rt[0].gcCPU, rt[1].totalCPU-rt[0].totalCPU), Unit: "ratio"}

	// Spans.
	self := selfTimes(spans)
	selfOf := func(name string) []float64 {
		var out []float64
		for _, s := range spans {
			if s.Name == name {
				out = append(out, float64(self[s.ID]))
			}
		}
		return out
	}
	durs := byName(spans, Span.Dur)
	for _, k := range []string{"detection", "packet", "tile", "snippet"} {
		pctl(l, "history.append_ns."+k, durs["history.append."+k], "ns", false)
	}
	pctl(l, "history.query_ns", durs["history.query.detections"], "ns", true)
	pctl(l, "history.wal_append_ns", durs["history.wal_append.detection"], "ns", true)
	pctl(l, "serving.publish_ns", durs["serving.publish"], "ns", false)
	pctl(l, "serving.query_handler_ns", durs["serving.query_handler"], "ns", true)
	pctl(l, "server.hub_detection_self_ns", selfOf("server.hub_detection"), "ns", false)
	pctl(l, "cluster.ledger_ingest_self_ns", selfOf("cluster.ledger_ingest"), "ns", false)
	if lr != nil {
		var ing, dup float64
		for _, t := range lr.tiers {
			if p := t.(*inproc); p.hub == nil {
				ing, dup = ing+float64(p.ingests), dup+float64(p.dups)
			}
		}
		l["cluster.duplicate_ratio"] = metric{Value: ratio(dup, ing), Unit: "ratio", N: int(ing)}
	}

	// Per-process CPU and generator lateness come from the untraced pass.
	for _, t := range []string{"leaf", "mid", "root"} {
		if v, ok := o.facts["cpu_per_air."+t].(float64); ok {
			l["proc."+t+".cpu_per_air"] = metric{Value: v, Unit: "CPU-s/air-s"}
		}
	}
	if v, ok := o.facts["cpu_per_air.leaf0"].(float64); ok {
		l["proc.leaf.cpu_per_air"] = metric{Value: (v + o.facts["cpu_per_air.leaf1"].(float64)) / 2, Unit: "CPU-s/air-s"}
	}
	if v, ok := o.facts["gen.late_p99_ms"].(float64); ok {
		l["gen.late_p99_ms"] = metric{Value: v, Unit: "ms"}
	}

	// Validity: tracing overhead, and how much of the traced CPU the
	// layers' self time accounts for. Reads blocked on the socket wait
	// rather than compute, so their self time is not attributed.
	tracedCPU := cpu / airS
	l["trace.overhead_frac"] = metric{Value: tracedCPU/o.facts["total_cpu_per_air"].(float64) - 1, Unit: "ratio"}
	var attributed float64
	for _, s := range spans {
		if s.Name != "wire.conn_read" {
			attributed += float64(self[s.ID])
		}
	}
	l["trace.unattributed_frac"] = metric{Value: 1 - attributed/1e9/cpu, Unit: "ratio"}
	o.facts["traced_cpu_per_air"] = tracedCPU
	o.facts["spans"] = len(spans)
	if err := writeSpans(filepath.Join(filepath.Dir(rc.dir), fmt.Sprintf("spans-%s-%d.jsonl", rc.workload, rc.seed)), spans); err != nil {
		return nil, err
	}
	return o, nil
}

// hopMetrics times each fused detection on every tier's feed: leaf →
// mid is the mid's first event for a detection minus the arrival of the
// leaf sighting it was created from; mid → root likewise.
func hopMetrics(l map[string]metric, lr *liveRun) {
	if lr.hops == nil {
		return
	}
	type key struct {
		start, end int64
		fam        string
	}
	first := func(evs []arrival) map[key]arrival {
		m := map[key]arrival{}
		for _, a := range evs {
			if a.ev.Type != "detection" || a.ev.Detection == nil {
				continue
			}
			k := key{a.ev.Detection.AbsStart, a.ev.Detection.AbsEnd, a.ev.Detection.Family}
			if _, ok := m[k]; !ok {
				m[k] = a
			}
		}
		return m
	}
	mid := first(lr.hops["mid"].snapshot())
	root := first(lr.events)
	var leafMid, midRoot []float64
	for _, n := range []string{"leaf0", "leaf1"} {
		for k, a := range first(lr.hops[n].snapshot()) {
			if m, ok := mid[k]; ok && m.ev.Detection.Node == n {
				leafMid = append(leafMid, float64(m.at.Sub(a.at))/1e6)
			}
		}
	}
	for k, m := range mid {
		if r, ok := root[k]; ok {
			midRoot = append(midRoot, float64(r.at.Sub(m.at))/1e6)
		}
	}
	pctl(l, "cluster.hop_ms.leaf-mid", leafMid, "ms", true)
	pctl(l, "cluster.hop_ms.mid-root", midRoot, "ms", true)
}

// pctl stores name.p99 (and name.p50 when both) with the sample count.
func pctl(l map[string]metric, name string, v []float64, unit string, both bool) {
	d := summarize(v)
	l[name+".p99"] = d.p99(unit)
	if both {
		l[name+".p50"] = metric{Value: d.P50, Unit: unit, N: d.N}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumDur(spans []Span, name string) float64 {
	var t int64
	for _, s := range spans {
		if s.Name == name {
			t += s.Dur()
		}
	}
	return float64(t) / 1e9
}

// sumSelf is the summed self time, in seconds, of the spans named name.
func sumSelf(spans []Span, name string) float64 {
	self := selfTimes(spans)
	var t int64
	for _, s := range spans {
		if s.Name == name {
			t += self[s.ID]
		}
	}
	return float64(t) / 1e9
}

func mergedCounters(regs []*rfmetrics.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, r := range regs {
		for n, v := range r.Snapshot().Counters {
			out[n] += v
		}
	}
	return out
}

// rtStats are the Go runtime's own allocation and GC CPU counters.
type rtStats struct{ mallocs, gcCPU, totalCPU float64 }

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return rtStats{out[0], out[1], out[2]}
}
