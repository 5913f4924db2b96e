package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit; N is the sample count a
// percentile rests on, and TailP, for a 99th percentile, the highest
// percentile that count supports.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	TailP float64 `json:"tail_percentile,omitempty"`
}

// endToEnd are the gated end-to-end metrics, in BENCHMARK.json order.
// Every workload reports each of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"analyze_msps", "Msample/s"},
	{"cpu_per_air", "CPU-s/air-s"},
	{"deliver_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, in BENCHMARK.json order. A
// layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"wire.read_ns_per_frame", "ns"},
	{"wire.bad_frames", "count"},
	{"blocks.news_per_get", "ratio"},
	{"blocks.live_max", "count"},
	{"runtime.allocs_per_msample", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"core.peak-detector.ns_per_chunk", "ns"},
	{"core.802.11-timing.ns_per_chunk", "ns"},
	{"core.802.11-phase.ns_per_chunk", "ns"},
	{"core.bt-timing.ns_per_chunk", "ns"},
	{"core.bt-phase.ns_per_chunk", "ns"},
	{"core.dispatcher.ns_per_request", "ns"},
	{"core.detect_lag_ms.p50", "ms"},
	{"core.detect_lag_ms.p99", "ms"},
	{"demod.802.11-demod.ns_per_request", "ns"},
	{"demod.bt-demod.ns_per_request", "ns"},
	{"demod.crc_pass_ratio", "ratio"},
	{"flowgraph.sched_overhead_frac", "ratio"},
	{"history.append_ns.detection.p99", "ns"},
	{"history.append_ns.packet.p99", "ns"},
	{"history.append_ns.tile.p99", "ns"},
	{"history.append_ns.snippet.p99", "ns"},
	{"history.append_bytes_per_record", "B"},
	{"history.query_ns.p50", "ns"},
	{"history.query_ns.p99", "ns"},
	{"history.wal_append_ns.p50", "ns"},
	{"history.wal_append_ns.p99", "ns"},
	{"serving.publish_ns.p99", "ns"},
	{"serving.query_handler_ns.p50", "ns"},
	{"serving.query_handler_ns.p99", "ns"},
	{"serving.dropped_events", "count"},
	{"serving.throttled", "count"},
	{"server.hub_detection_self_ns.p99", "ns"},
	{"cluster.ledger_ingest_self_ns.p99", "ns"},
	{"cluster.duplicate_ratio", "ratio"},
	{"cluster.hop_ms.leaf-mid.p50", "ms"},
	{"cluster.hop_ms.leaf-mid.p99", "ms"},
	{"cluster.hop_ms.mid-root.p50", "ms"},
	{"cluster.hop_ms.mid-root.p99", "ms"},
	{"proc.leaf.cpu_per_air", "CPU-s/air-s"},
	{"proc.mid.cpu_per_air", "CPU-s/air-s"},
	{"proc.root.cpu_per_air", "CPU-s/air-s"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is everything one run measured.
type outcome struct {
	e2e    map[string]metric
	layer  map[string]metric
	tally  *Tally
	checks []check
	facts  map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}, tally: newTally(), facts: map[string]any{}}
}

func (o *outcome) check(name string, ok bool, detail string) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: detail})
}

func (o *outcome) correct() bool { return o.failedChecks() == "" }

func (o *outcome) failedChecks() string {
	var bad []string
	for _, c := range o.checks {
		if !c.OK {
			bad = append(bad, c.Name+": "+c.Detail)
		}
	}
	return strings.Join(bad, "; ")
}

// contract is the benchmark's last output line.
func (o *outcome) contract(traced bool) map[string]any {
	list, src := endToEnd, o.e2e
	if traced {
		list, src = perLayer, o.layer
	}
	ms := map[string]metric{}
	for _, m := range list {
		v := src[m.name]
		ms[m.name] = metric{Value: v.Value, Unit: m.unit}
	}
	a, f := o.tally.Totals()
	// The contract needs attempted >= 1; a run that attempted nothing
	// already failed its run.attempted check.
	return map[string]any{"correct": o.correct(), "attempted": max(a, 1), "failed": f, "metrics": ms}
}

// report is the full result line printed before the contract line:
// every metric measured (gated or not) with sample counts, the checks,
// the failure tally and the host and input facts.
func (o *outcome) report(rc *runCtx) map[string]any {
	facts := map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   sourceDigest(),
		"seed":       rc.seed,
		"workload":   rc.workload,
		"seconds":    rc.seconds,
		"taken":      time.Now().UTC().Format(time.RFC3339),
	}
	for k, v := range o.facts {
		facts[k] = v
	}
	a, f := o.tally.Totals()
	return map[string]any{"report": map[string]any{
		"facts":      facts,
		"end_to_end": o.e2e,
		"per_layer":  o.layer,
		"checks":     o.checks,
		"tally":      o.tally,
		"fail_ratio": metric{Value: o.tally.Ratio(), Unit: "ratio", N: int(a)},
		"failed":     f,
	}}
}

// cpuModel is the host CPU's model name.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// sourceDigest identifies the program revision by hashing its Go
// sources (the checkout the benchmark runs in need not be a git
// repository).
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err == nil {
			h.Write([]byte(f))
			h.Write(raw)
		}
	}
	if len(files) == 0 {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
