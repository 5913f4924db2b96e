package main

import (
	"fmt"
	"io"
	"time"

	"rfdump/internal/ether"
	"rfdump/internal/experiments"
	"rfdump/internal/iq"
	"rfdump/internal/mac"
	"rfdump/internal/phy/microwave"
	"rfdump/internal/phy/wifi"
	"rfdump/internal/protocols"
	"rfdump/internal/truth"
)

// Air seconds rendered per workload. Rendering costs about 1.3 s of CPU
// per sensor-second, so a run renders a short loop once and replays it
// at advancing sample offsets for the whole measurement.
const (
	batchAirS = 1.0
	leafAirS  = 2.0
	treeAirS  = 1.0
)

func addr(b byte) (a wifi.Addr) {
	for i := range a {
		a[i] = b
	}
	return
}

// mixSources is rfgen's "mix" profile — 802.11b 1 Mbps unicast pings
// and a Bluetooth piconet — for the whole rendered duration, with the
// ping spacing of each source given (rfgen: 260000 samples and 84
// slots). With an oven it adds a low-duty microwave; at the default
// half-cycle duty the oven alone would hold the air at 50%.
func mixSources(interPing iq.Tick, btSlots int, oven bool) []mac.Source {
	srcs := []mac.Source{
		&mac.WiFiUnicast{
			Rate: protocols.WiFi80211b1M, Pings: 1 << 20, PayloadBytes: 500,
			InterPing: interPing, Requester: addr(0x11), Responder: addr(0x22),
			BSSID: addr(0x33), CFOHz: 2500,
		},
		&mac.BluetoothPiconet{
			LAP: experiments.PiconetLAP, UAP: experiments.PiconetUAP,
			Pings: 1 << 20, InterPingSlots: btSlots, CFOHz: -900,
		},
	}
	if oven {
		o := microwave.DefaultOven(iq.NewClock(iq.DefaultSampleRate))
		o.Duty = 0.15
		srcs = append(srcs, &mac.MicrowaveSource{Oven: &o, SNROffsetDB: 5})
	}
	return srcs
}

// airConfig is an ether of airS seconds for one seed.
func airConfig(seed uint64, airS float64, srcs []mac.Source) ether.Config {
	n := iq.Tick(airS * float64(iq.DefaultSampleRate))
	return ether.Config{Duration: n, SNRdB: 20, Seed: seed, Sources: srcs}
}

// air is one rendered loop: per-sensor samples and ground truth.
type air struct {
	Clock   iq.Clock
	Sensors []iq.Samples
	Truth   []*truth.Set // per sensor, in that sensor's clock
	Master  *truth.Set
	Render  time.Duration
}

// Len is the loop length in samples.
func (a *air) Len() int { return len(a.Sensors[0]) }

// treeSensors are the two sensor positions of tree-fanin: the second one
// hears the ether 3 dB weaker through a clock skewed by 16 samples.
var treeSensors = []ether.Sensor{
	{Name: "s0"},
	{Name: "s1", PathLossdB: 3, ClockSkew: 16},
}

// render builds the air of workload w for seed.
func render(w string, seed uint64) (*air, error) {
	t0 := time.Now()
	var out *air
	switch w {
	case "batch-mix", "leaf-dvr":
		// batch-mix: faster pings and the oven bring the air near the
		// paper's 50% utilization. leaf-dvr: mix at half rfgen's ping
		// rates, which keeps the DVR's one session near 0.55 CPU-s per
		// air-s; at full rate it needs 0.8, and its delivery latency then
		// follows how much CPU the host's other tenants leave it.
		cfg := airConfig(seed, batchAirS, mixSources(160_000, 40, true))
		if w == "leaf-dvr" {
			cfg = airConfig(seed, leafAirS, mixSources(520_000, 168, false))
		}
		res, err := ether.Run(cfg)
		if err != nil {
			return nil, err
		}
		out = &air{Clock: res.Clock, Sensors: []iq.Samples{res.Samples}, Truth: []*truth.Set{res.Truth}, Master: res.Truth}
	case "tree-fanin":
		res, err := ether.RunSensors(airConfig(seed, treeAirS, mixSources(260_000, 84, false)), treeSensors)
		if err != nil {
			return nil, err
		}
		out = &air{Clock: res.Clock, Master: res.Truth}
		for _, s := range res.Sensors {
			out.Sensors = append(out.Sensors, s.Samples)
			out.Truth = append(out.Truth, s.Truth)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	out.Render = time.Since(t0)
	return out, nil
}

// utilization is the share of the loop covered by visible transmissions.
func (a *air) utilization() float64 {
	return float64(iq.TotalLen(a.Master.Spans())) / float64(a.Master.TraceLen)
}

// loopReader plays one rendered loop once, calling after for each
// block it hands out.
type loopReader struct {
	loop  iq.Samples
	pos   int
	after func()
}

func (r *loopReader) ReadBlock(dst iq.Samples) (int, error) {
	if r.pos == len(r.loop) {
		return 0, io.EOF
	}
	n := copy(dst, r.loop[r.pos:])
	r.pos += n
	r.after()
	return n, nil
}
