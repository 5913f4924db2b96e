package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"rfdump/internal/iq"
	"rfdump/internal/protocols"
	"rfdump/internal/trace"
	"rfdump/internal/truth"
)

// setupReps is how many times an untraced run sets up; setup_s is the
// median. The traced pass sets up once.
const setupReps = 3

type runCtx struct {
	workload string
	seed     uint64
	seconds  float64
	bin      string
	self     string
	dir      string
	reps     int // set-up repetitions (setupReps when 0)
}

// setupMedian performs set-up rc.reps times, keeping the last one:
// each repetition renders the air and starts the processes under test
// until they are ready for the first sample; teardown discards all but
// the last. It returns the median duration.
func setupMedian[T any](rc *runCtx, do func(rep int) (T, error), teardown func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	reps := rc.reps
	if reps == 0 {
		reps = setupReps
	}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		v, err := do(rep)
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if rep < reps-1 {
			teardown(v)
		}
		last = v
	}
	return last, median(times), nil
}

func runUntraced(rc *runCtx) (*outcome, error) {
	switch rc.workload {
	case "batch-mix":
		return runBatchMix(rc)
	case "leaf-dvr":
		o, _, err := runLeafDVR(rc, nil)
		return o, err
	default:
		o, _, err := runTreeFanin(rc, nil)
		return o, err
	}
}

// batchSetup is one batch-mix set-up: the rendered air and the process
// under test, loaded and waiting for the go-ahead.
type batchSetup struct {
	air   *air
	proc  *child
	start *os.File // write end of the child's stdin
	out   *bytes.Buffer
}

var batchReady = regexp.MustCompile(`^perfbench-batch: ready`)

func runBatchMix(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	airPath := filepath.Join(rc.dir, "air.rfd")
	s, setupS, err := setupMedian(rc, func(int) (*batchSetup, error) {
		a, err := render(rc.workload, rc.seed)
		if err != nil {
			return nil, err
		}
		if err := trace.WriteFile(airPath, a.Clock.Rate, a.Sensors[0]); err != nil {
			return nil, err
		}
		r, w, err := os.Pipe()
		if err != nil {
			return nil, err
		}
		out := &bytes.Buffer{}
		p, _, err := startChild("batch", rc.self,
			[]string{"-role", "batch", "-air", airPath, "-seconds", strconv.FormatFloat(rc.seconds, 'f', -1, 64)},
			batchReady, r, out)
		r.Close()
		if err != nil {
			w.Close()
			return nil, err
		}
		return &batchSetup{air: a, proc: p, start: w, out: out}, nil
	}, func(s *batchSetup) { s.start.Close(); s.proc.kill() })
	if err != nil {
		return nil, err
	}
	defer s.proc.kill()
	o.e2e["setup_s"] = metric{Value: setupS, Unit: "s"}

	// Go: the child measures itself and reports on stdout.
	host := startHostLoad()
	if _, err := s.start.Write([]byte("go\n")); err != nil {
		return nil, err
	}
	s.start.Close()
	<-s.proc.done
	o.facts["host"] = host.stop()
	if st := s.proc.cmd.ProcessState; !st.Success() {
		return nil, fmt.Errorf("batch process failed (%v): %s", st, s.proc.log.String())
	}
	var br BatchResult
	if err := json.Unmarshal(s.out.Bytes(), &br); err != nil {
		return nil, fmt.Errorf("batch process output: %w", err)
	}
	a := s.air
	airS := float64(br.Samples) / float64(a.Clock.Rate)
	// Each loop is one session over the same samples; the median loop
	// rate is what a stall the host imposes on one loop cannot move.
	var rates []float64
	for _, w := range br.LoopWall {
		rates = append(rates, float64(a.Len())/w/1e6)
	}
	o.e2e["analyze_msps"] = metric{Value: median(rates), Unit: "Msample/s", N: len(rates)}
	o.e2e["cpu_per_air"] = metric{Value: br.CPUS / airS, Unit: "CPU-s/air-s"}
	deliverMetrics(o, br.DetLag)
	o.e2e["peak_rss_mb"] = metric{Value: br.PeakRSS, Unit: "MB"}
	o.facts["packet_lag_ms"] = summarize(br.PacketLag)

	ref, err := reference(a)
	if err != nil {
		return nil, err
	}
	checkLoops(o, ref, br.PerLoop)
	o.e2e["miss_rate"] = metric{Value: missRate(a.Truth[0], br.First), Unit: "ratio", N: len(a.Truth[0].Records)}
	o.facts["air_s"] = airS
	o.facts["total_cpu_per_air"] = br.CPUS / airS
	o.facts["loop_air_s"] = float64(a.Len()) / float64(a.Clock.Rate)
	o.facts["loops"] = br.Loops
	o.facts["utilization"] = a.utilization()
	o.facts["reference"] = ref
	o.facts["render_s"] = a.Render.Seconds()
	return o, nil
}

// checkLoops compares every replayed loop against the offline
// reference; each loop is one attempted operation.
func checkLoops(o *outcome, ref Counts, loops []Counts) {
	bad := 0
	detail := ""
	for i, c := range loops {
		if !c.equal(ref) {
			bad++
			if detail == "" {
				detail = fmt.Sprintf("loop %d: %v, reference %v", i, c, ref)
			}
		}
	}
	o.tally.attempt("loops", int64(len(loops)))
	o.tally.fail("loops", int64(bad))
	o.check("batch.loops_match_reference", bad == 0 && len(loops) > 0, detail)
}

// missRate is the share of visible 802.11b and Bluetooth ground-truth
// transmissions no detection overlaps (the default detectors claim no
// other family).
func missRate(ts *truth.Set, dets []truth.Detection) float64 {
	var total, found int
	for _, fam := range []protocols.ID{protocols.WiFi80211b1M, protocols.Bluetooth} {
		st := truth.Match(ts, dets, fam)
		total += st.Total
		found += st.Found
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(found)/float64(total)
}

// batchChild is the batch-mix process under test: load the trace, say
// ready, wait for the go-ahead on stdin, run, report JSON on stdout.
func batchChild(airPath string, seconds float64) int {
	h, samples, err := trace.ReadFile(airPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench-batch:", err)
		return 1
	}
	a := &air{Clock: iq.NewClock(h.Rate), Sensors: []iq.Samples{samples}}
	fmt.Fprintln(os.Stderr, "perfbench-batch: ready")
	var buf [16]byte
	if n, _ := os.Stdin.Read(buf[:]); !strings.HasPrefix(string(buf[:n]), "go") {
		return 1
	}
	res, _, err := runBatch(a, seconds, nil, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench-batch:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}
