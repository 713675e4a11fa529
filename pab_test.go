package pab

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pab/internal/lint"
)

func TestDefaultLinkEndToEnd(t *testing.T) {
	link, err := NewDefaultLink()
	if err != nil {
		t.Fatal(err)
	}
	if err := link.MustPowerUp(); err != nil {
		t.Fatal(err)
	}
	if v := link.CapVoltage(); v < 2.0 {
		t.Errorf("cap voltage %g after power up", v)
	}
	df, err := link.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if df.Source != 0x01 {
		t.Errorf("ping source %x", df.Source)
	}
}

func TestReadAllSensors(t *testing.T) {
	link, err := NewDefaultLink()
	if err != nil {
		t.Fatal(err)
	}
	if err := link.MustPowerUp(); err != nil {
		t.Fatal(err)
	}
	env := RoomTank()
	cases := []struct {
		id   SensorID
		want float64
		tol  float64
	}{
		{SensorPH, env.PH, 0.05},
		{SensorTemperature, env.TemperatureC, 0.1},
		{SensorPressure, env.PressureBar * 1000, 2},
	}
	for _, tc := range cases {
		r, err := link.ReadSensor(tc.id)
		if err != nil {
			t.Fatalf("%v: %v", tc.id, err)
		}
		if r.Sensor != tc.id {
			t.Errorf("sensor %v, want %v", r.Sensor, tc.id)
		}
		if math.Abs(r.Value-tc.want) > tc.tol {
			t.Errorf("%v = %g, want %g", tc.id, r.Value, tc.want)
		}
		if r.SNRdB < 0 {
			t.Errorf("%v SNR %g dB", tc.id, r.SNRdB)
		}
	}
}

func TestSetBitrate(t *testing.T) {
	link, err := NewDefaultLink()
	if err != nil {
		t.Fatal(err)
	}
	if err := link.MustPowerUp(); err != nil {
		t.Fatal(err)
	}
	if err := link.SetBitrate(2); err != nil { // 32768/32 = 1024 bps
		t.Fatal(err)
	}
	if math.Abs(link.NodeBitrate()-1024) > 1 {
		t.Errorf("bitrate %g, want 1024", link.NodeBitrate())
	}
	// And the link still works at the new rate.
	if _, err := link.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestPollerOverLink(t *testing.T) {
	link, err := NewDefaultLink()
	if err != nil {
		t.Fatal(err)
	}
	if err := link.MustPowerUp(); err != nil {
		t.Fatal(err)
	}
	p, err := link.NewPoller(2)
	if err != nil {
		t.Fatal(err)
	}
	df, err := p.ReadSensor(0x01, SensorTemperature)
	if err != nil {
		t.Fatal(err)
	}
	if df == nil {
		t.Fatal("nil frame")
	}
	s := p.Stats()
	if s.Replies != 1 || s.Airtime <= 0 {
		t.Errorf("stats %+v", s)
	}
	if s.GoodputBps() <= 0 {
		t.Error("goodput should be positive")
	}
}

func TestExperimentsFacade(t *testing.T) {
	names := Experiments()
	if len(names) != 11 {
		t.Fatalf("experiments: %v", names)
	}
	var buf bytes.Buffer
	if err := RunExperiment("fig11", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "idle") {
		t.Error("fig11 output missing idle row")
	}
	if err := RunExperiment("nope", &buf); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestWeakLinkFailsGracefully(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.DriveV = 1
	link, err := NewLink(cfg, 0x02, 500, RoomTank())
	if err != nil {
		t.Fatal(err)
	}
	if err := link.MustPowerUp(); err == nil {
		t.Error("1 V drive should not power the node")
	}
}

func TestFDMANetworkFacade(t *testing.T) {
	net, err := NewFDMANetwork(DefaultFDMANetworkConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.PowerUpAll(120); err != nil {
		t.Fatal(err)
	}
	replies := net.Round(func(addr byte) Query {
		return Query{Dest: addr, Command: 0x01} // ping
	})
	for addr, df := range replies {
		if df == nil {
			t.Errorf("node %02x silent", addr)
		} else if df.Source != addr {
			t.Errorf("node %02x replied as %02x", addr, df.Source)
		}
	}
}

func TestTraceFacade(t *testing.T) {
	link, err := NewDefaultLink()
	if err != nil {
		t.Fatal(err)
	}
	times, amps, err := link.Trace(1.0, 0.2, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(amps) || len(times) == 0 {
		t.Fatalf("trace lengths %d/%d", len(times), len(amps))
	}
	// Quiet before TX, carrier after.
	var pre, post float64
	for i, tm := range times {
		if tm < 0.15 {
			pre += amps[i]
		}
		if tm > 0.3 && tm < 0.55 {
			post += amps[i]
		}
	}
	if post <= pre {
		t.Error("carrier should raise the received amplitude")
	}
	if _, _, err := link.Trace(1, 0.9, 0.5, 5); err == nil {
		t.Error("invalid schedule should error")
	}
}

// TestTraceToggleRates drives the Fig 2 trace across toggle rates: the
// paper's 5 Hz and a fast toggle whose demodulation cutoff still fits
// below fs/2 run; a rate that is not positive and finite, or whose
// cutoff (4·toggleHz + 50 Hz) reaches fs/2 = 48 kHz, is an error, never
// a panic or a meaningless trace.
func TestTraceToggleRates(t *testing.T) {
	link, err := NewDefaultLink()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		toggleHz float64
		ok       bool
	}{
		{5, true},
		{11000, true},
		{11987.5, false}, // cutoff exactly fs/2
		{20000, false},
		{60000, false}, // above fs/2: under one sample per switch state
		{0, false},
		{-5, false},
		{math.NaN(), false},
		{math.Inf(1), false},
	} {
		times, amps, err := link.Trace(0.5, 0.1, 0.3, tc.toggleHz)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%g Hz: %v", tc.toggleHz, err)
		case tc.ok && (len(times) == 0 || len(times) != len(amps)):
			t.Errorf("%g Hz: trace lengths %d/%d", tc.toggleHz, len(times), len(amps))
		case !tc.ok && err == nil:
			t.Errorf("%g Hz: want an error, got a %d-point trace", tc.toggleHz, len(times))
		}
	}
}

// TestLintSmoke runs the pablint analyzer suite in-process over the
// fault engine — the package whose determinism contract the whole
// evaluation harness leans on — and asserts it is finding-free, so a
// plain `go test ./...` catches invariant regressions even without CI.
func TestLintSmoke(t *testing.T) {
	loader, err := lint.NewModuleLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("pab/internal/fault")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lint.DefaultConfig()
	prog := &lint.Program{Pkgs: []*lint.Package{pkg}, Loader: loader}
	for _, f := range lint.Run(prog, cfg, lint.Analyzers(cfg)) {
		t.Errorf("pablint: %s", f)
	}
}
