package core

import (
	"math"
	"testing"

	"pab/internal/channel"
	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/node"
	"pab/internal/piezo"
	"pab/internal/projector"
	"pab/internal/rectifier"
	"pab/internal/sensors"
)

// newTestNode builds a paper-standard node with 15 kHz and 18 kHz
// recto-piezos.
func newTestNode(t *testing.T, addr byte, bitrate float64) *node.Node {
	t.Helper()
	tr, err := piezo.New(piezo.PaperCylinder())
	if err != nil {
		t.Fatal(err)
	}
	fe15, err := node.NewRectoPiezo(tr, rectifier.Paper(), 15000)
	if err != nil {
		t.Fatal(err)
	}
	fe18, err := node.NewRectoPiezo(tr, rectifier.Paper(), 18000)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{
		Addr:       addr,
		FrontEnds:  []*node.RectoPiezo{fe15, fe18},
		MCU:        node.PaperMCU(),
		Cap:        rectifier.PaperSupercap(),
		LDO:        rectifier.PaperLDO(),
		BitrateBps: bitrate,
		Env:        sensors.RoomTank(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newTestProjector(t *testing.T, fs float64) *projector.Projector {
	t.Helper()
	tr, err := piezo.New(piezo.PaperCylinder())
	if err != nil {
		t.Fatal(err)
	}
	p, err := projector.New(tr, 350, fs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestLink(t *testing.T, cfg LinkConfig, bitrate float64) *Link {
	t.Helper()
	n := newTestNode(t, 0x0A, bitrate)
	p := newTestProjector(t, cfg.SampleRate)
	l, err := NewLink(cfg, n, p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLinkValidation(t *testing.T) {
	cfg := DefaultLinkConfig()
	n := newTestNode(t, 1, 500)
	p := newTestProjector(t, cfg.SampleRate)
	if _, err := NewLink(cfg, nil, p); err == nil {
		t.Error("nil node should error")
	}
	bad := cfg
	bad.CarrierHz = 0
	if _, err := NewLink(bad, n, p); err == nil {
		t.Error("zero carrier should error")
	}
	bad = cfg
	bad.NodePos = channel.Vec3{X: 99, Y: 0, Z: 0}
	if _, err := NewLink(bad, n, p); err == nil {
		t.Error("node outside tank should error")
	}
	bad = cfg
	bad.PWMUnit = 2
	if _, err := NewLink(bad, n, p); err == nil {
		t.Error("tiny PWM unit should error")
	}
}

func TestPowerUpNearProjector(t *testing.T) {
	l := newTestLink(t, DefaultLinkConfig(), 500)
	if l.Node().State() != node.Off {
		t.Fatal("node should start cold")
	}
	if !l.CanEverPowerUp() {
		t.Fatal("nominal link should be able to power up")
	}
	if !l.PowerUp(60) {
		t.Fatalf("node failed to power up (cap %.2f V)", l.Node().CapVoltage())
	}
}

func TestPowerUpFailsWhenWeak(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.DriveV = 0.5 // almost no source level
	l := newTestLink(t, cfg, 500)
	if l.CanEverPowerUp() {
		t.Error("0.5 V drive should not be able to power the node")
	}
	if l.PowerUp(5) {
		t.Error("node should not power up at 0.5 V drive")
	}
}

func TestRunQueryRequiresPower(t *testing.T) {
	l := newTestLink(t, DefaultLinkConfig(), 500)
	if _, err := l.RunQuery(frame.Query{Dest: 0x0A, Command: frame.CmdPing}); err == nil {
		t.Error("query against a cold node should error")
	}
}

func TestEndToEndPing(t *testing.T) {
	l := newTestLink(t, DefaultLinkConfig(), 500)
	if !l.PowerUp(60) {
		t.Fatal("power up failed")
	}
	res, err := l.RunQuery(frame.Query{Dest: 0x0A, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	if !res.NodeDecodedQuery {
		t.Fatal("node failed to decode the downlink query")
	}
	if res.UplinkBits == nil {
		t.Fatal("node produced no uplink")
	}
	if res.Decoded == nil {
		t.Fatal("receiver decoded nothing")
	}
	if res.UplinkBER > 0 {
		t.Errorf("uplink BER %g, want 0 at close range", res.UplinkBER)
	}
	if res.Decoded.Frame.Source != 0x0A {
		t.Errorf("frame source %x, want 0a", res.Decoded.Frame.Source)
	}
	if res.Decoded.SNRLinear < 2 {
		t.Errorf("SNR %g too low for a close link", res.Decoded.SNRLinear)
	}
}

func TestEndToEndSensorReading(t *testing.T) {
	l := newTestLink(t, DefaultLinkConfig(), 500)
	if !l.PowerUp(60) {
		t.Fatal("power up failed")
	}
	res, err := l.RunQuery(frame.Query{Dest: 0x0A, Command: frame.CmdReadSensor, Param: byte(frame.SensorPH)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoded == nil || res.UplinkBER > 0 {
		t.Fatalf("sensor exchange failed (ber %g)", res.UplinkBER)
	}
	id, val, err := node.ParseSensorPayload(res.Decoded.Frame.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != frame.SensorPH || math.Abs(val-7.0) > 0.05 {
		t.Errorf("decoded %v=%g, want pH≈7 (paper §6.5)", id, val)
	}
}

func TestForeignAddressStaysQuiet(t *testing.T) {
	l := newTestLink(t, DefaultLinkConfig(), 500)
	if !l.PowerUp(60) {
		t.Fatal("power up failed")
	}
	res, err := l.RunQuery(frame.Query{Dest: 0x77, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	if !res.NodeDecodedQuery {
		t.Error("node should still decode the query")
	}
	if res.UplinkBits != nil {
		t.Error("node should not reply to a foreign address")
	}
}

func TestSNRDecreasesWithNoise(t *testing.T) {
	// The low-noise link is ISI-limited (tank reverberation), so the
	// noise must be strong enough to dominate that floor before the SNR
	// responds — hence 2 Pa vs 200 Pa.
	var snrs []float64
	for _, noise := range []float64{2.0, 200.0} {
		cfg := DefaultLinkConfig()
		cfg.NoiseRMS = noise
		l := newTestLink(t, cfg, 500)
		if !l.PowerUp(60) {
			t.Fatal("power up failed")
		}
		res, err := l.RunQuery(frame.Query{Dest: 0x0A, Command: frame.CmdPing})
		if err != nil {
			t.Fatal(err)
		}
		if res.Decoded == nil {
			t.Fatal("no decode")
		}
		snrs = append(snrs, res.Decoded.SNRLinear)
	}
	if snrs[1] >= snrs[0] {
		t.Errorf("SNR should fall with noise: %v", snrs)
	}
}

func TestTraceShowsTwoLevels(t *testing.T) {
	// Fig 2: after backscatter starts, the demodulated amplitude
	// alternates between two levels.
	cfg := DefaultLinkConfig()
	cfg.NoiseRMS = 0.1
	l := newTestLink(t, cfg, 500)
	tr, err := l.RunTrace(1.5, 0.2, 0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx := func(sec float64) int { return int(sec * tr.SampleRate) }
	// Quiet before TX starts.
	pre := dsp.Mean(tr.Amplitude[:idx(0.15)])
	// Constant carrier between TX start and backscatter start.
	carrier := dsp.Mean(tr.Amplitude[idx(0.4):idx(0.7)])
	if carrier < 10*pre {
		t.Errorf("carrier level %g should dwarf pre-TX %g", carrier, pre)
	}
	// During backscatter the amplitude alternates: measure spread over
	// windows of half toggle period (100 ms).
	var highs, lows []float64
	for s := 0.85; s+0.1 < 1.5; s += 0.1 {
		m := dsp.Mean(tr.Amplitude[idx(s):idx(s+0.09)])
		if len(highs) == 0 || m > dsp.Mean(highs) {
			highs = append(highs, m)
		} else {
			lows = append(lows, m)
		}
	}
	// Spread between backscatter windows should exceed the pre-TX noise.
	var all []float64
	all = append(all, highs...)
	all = append(all, lows...)
	maxV, minV := all[0], all[0]
	for _, v := range all {
		maxV = math.Max(maxV, v)
		minV = math.Min(minV, v)
	}
	if maxV-minV <= 2*pre {
		t.Errorf("backscatter modulation %g–%g not visible above noise %g", minV, maxV, pre)
	}
	if _, err := l.RunTrace(1, 0.5, 0.4, 5); err == nil {
		t.Error("invalid schedule should error")
	}
}

func TestConcurrentCollisionDecoding(t *testing.T) {
	// Fig 10: SINR improves after zero-forcing projection.
	cfg := DefaultConcurrentConfig()
	nodes := [2]*node.Node{newTestNode(t, 1, cfg.BitrateBps), newTestNode(t, 2, cfg.BitrateBps)}
	// Node 1 uses the 18 kHz circuit.
	powerNode(t, nodes[0], 15000)
	powerNode(t, nodes[1], 18000)
	switchFrontEnd(t, nodes[1], 1)
	proj := newTestProjector(t, cfg.SampleRate)
	res, err := RunConcurrent(cfg, nodes, proj)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if res.SINRAfter[k] <= res.SINRBefore[k] {
			t.Errorf("node %d: SINR after projection (%g) should exceed before (%g)",
				k, res.SINRAfter[k], res.SINRBefore[k])
		}
		if res.BERAfter[k] > res.BERBefore[k] {
			t.Errorf("node %d: BER after (%g) should not exceed before (%g)",
				k, res.BERAfter[k], res.BERBefore[k])
		}
	}
	if res.Condition <= 0 {
		t.Error("condition number should be positive")
	}
}

func powerNode(t *testing.T, n *node.Node, f float64) {
	t.Helper()
	rhoC := piezo.RhoC(1482, false)
	for i := 0; i < 200000 && n.State() == node.Off; i++ {
		n.HarvestStep(3000, f, rhoC, 1e-3)
	}
	if n.State() == node.Off {
		t.Fatal("node did not power on")
	}
}

func switchFrontEnd(t *testing.T, n *node.Node, idx int) {
	t.Helper()
	if _, err := n.HandleQuery(frame.Query{Dest: n.Addr(), Command: frame.CmdSwitchResonance, Param: byte(idx)}); err != nil {
		t.Fatal(err)
	}
}

func TestRunConcurrentValidation(t *testing.T) {
	cfg := DefaultConcurrentConfig()
	proj := newTestProjector(t, cfg.SampleRate)
	if _, err := RunConcurrent(cfg, [2]*node.Node{nil, nil}, proj); err == nil {
		t.Error("nil nodes should error")
	}
	nodes := [2]*node.Node{newTestNode(t, 1, 500), newTestNode(t, 2, 500)}
	bad := cfg
	bad.PayloadBits = 0
	if _, err := RunConcurrent(bad, nodes, proj); err == nil {
		t.Error("zero payload should error")
	}
}

func TestDecodedSNRdB(t *testing.T) {
	d := &Decoded{SNRLinear: 100}
	if math.Abs(d.SNRdB()-20) > 1e-9 {
		t.Errorf("SNRdB = %g", d.SNRdB())
	}
	zero := &Decoded{}
	if !math.IsInf(zero.SNRdB(), -1) {
		t.Error("zero SNR should be -Inf dB")
	}
}

func TestReceiverRejectsGarbage(t *testing.T) {
	r, err := NewReceiver(96000)
	if err != nil {
		t.Fatal(err)
	}
	noise := make([]float64, 48000)
	for i := range noise {
		noise[i] = math.Sin(float64(i)*0.01) * 0.001
	}
	if _, err := r.DecodeUplink(noise, 15000, 500, 0); err == nil {
		t.Error("garbage should not decode")
	}
	if _, err := r.DecodeUplink(noise, 15000, 500, len(noise)+5); err == nil {
		t.Error("out-of-range gate should error")
	}
}
