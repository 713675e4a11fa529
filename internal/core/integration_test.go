package core

import (
	"math"
	"math/rand"
	"testing"

	"pab/internal/channel"
	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/node"
	"pab/internal/phy"
	"pab/internal/sensors"
)

// ---------------------------------------------------------------------------
// Receiver internals
// ---------------------------------------------------------------------------

func TestCoherentWaveRecoversQuadratureModulation(t *testing.T) {
	// Modulation entirely in quadrature with the carrier: envelope
	// detection sees almost nothing; the coherent projection recovers it.
	rng := rand.New(rand.NewSource(3))
	n := 8000
	carrier := complex(1.0, 0)
	bb := make([]complex128, n)
	mod := make([]float64, n)
	for i := range bb {
		m := float64((i / 200) % 2) // 0/1 square modulation
		mod[i] = m
		bb[i] = carrier + complex(0, 0.1*m) + complex(rng.NormFloat64(), rng.NormFloat64())*1e-3
	}
	wave := CoherentWave(bb)
	// The projection should swing by ≈0.1 between states.
	var hi, lo float64
	var nh, nl int
	for i := range wave {
		if mod[i] > 0 {
			hi += wave[i]
			nh++
		} else {
			lo += wave[i]
			nl++
		}
	}
	swing := math.Abs(hi/float64(nh) - lo/float64(nl))
	if swing < 0.09 {
		t.Errorf("coherent swing %g, want ~0.1 (envelope would see ~0.005)", swing)
	}
}

func TestEstimateAxisEmpty(t *testing.T) {
	a := estimateAxis(nil)
	if a.rot != 1 {
		t.Error("empty axis should default to identity rotation")
	}
	if out := projectAxis(nil, a); len(out) != 0 {
		t.Error("empty projection should be empty")
	}
}

func TestCorrectCFOIfRealKeepsRealOffsets(t *testing.T) {
	r, err := NewReceiver(96000)
	if err != nil {
		t.Fatal(err)
	}
	// A genuine 30 Hz offset: correction should be kept.
	n := 48000
	bb := make([]complex128, n)
	for i := range bb {
		ph := 2 * math.Pi * 30 * float64(i) / 96000
		bb[i] = complex(math.Cos(ph), math.Sin(ph))
	}
	fixed, cfo := r.correctCFOIfReal(bb)
	if math.Abs(cfo-30) > 1 {
		t.Errorf("estimated CFO %g, want ~30", cfo)
	}
	if resid := phy.EstimateCFO(fixed, 96000); math.Abs(resid) > 1 {
		t.Errorf("residual %g Hz after correction", resid)
	}
}

func TestCorrectCFOIfRealRejectsSpuriousEstimates(t *testing.T) {
	r, err := NewReceiver(96000)
	if err != nil {
		t.Fatal(err)
	}
	// A coherent carrier with asymmetric amplitude structure that biases
	// the lag-1 estimator: the correction must be rejected (cfo → 0).
	rng := rand.New(rand.NewSource(7))
	n := 48000
	bb := make([]complex128, n)
	for i := range bb {
		amp := 1.0
		if (i/970)%3 == 0 { // aperiodic-ish amplitude structure
			amp = 0.3
		}
		bb[i] = complex(amp, 0) + complex(0, rng.NormFloat64()*0.15)
	}
	fixed, cfo := r.correctCFOIfReal(bb)
	if cfo != 0 {
		// If an estimate was kept, the carrier must genuinely be more
		// concentrated afterwards.
		if carrierConcentration(fixed) < carrierConcentration(bb) {
			t.Errorf("kept CFO %g that reduced carrier concentration", cfo)
		}
	}
}

func TestCarrierConcentrationBounds(t *testing.T) {
	if carrierConcentration(nil) != 0 {
		t.Error("empty should be 0")
	}
	pure := []complex128{1, 1, 1, 1}
	if c := carrierConcentration(pure); math.Abs(c-1) > 1e-12 {
		t.Errorf("pure phasor concentration %g", c)
	}
	spread := []complex128{1, -1, 1, -1}
	if c := carrierConcentration(spread); c > 1e-12 {
		t.Errorf("alternating phasor concentration %g, want 0", c)
	}
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

// burstLink wraps a Link recording and injects a noise burst into the
// uplink region before decoding, to force CRC failures.
func TestARQRecoversFromBurstNoise(t *testing.T) {
	// Run a normal exchange, then corrupt the uplink with a strong burst
	// and verify the receiver reports a failure rather than a wrong
	// frame — the condition that triggers the MAC's retransmission
	// (§5.1b).
	l := newTestLink(t, DefaultLinkConfig(), 500)
	if !l.PowerUp(60) {
		t.Fatal("power up failed")
	}
	res, err := l.RunQuery(frame.Query{Dest: 0x0A, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoded == nil || res.UplinkBER > 0 {
		t.Fatal("baseline exchange should be clean")
	}

	// Corrupt the middle of the uplink in the recording and re-decode.
	recording := append([]float64{}, res.Recording...)
	start := res.Decoded.Sync.Index + 2000
	rng := rand.New(rand.NewSource(1))
	burstRMS := dsp.RMS(recording) * 20
	for i := start; i < start+30000 && i < len(recording); i++ {
		recording[i] += rng.NormFloat64() * burstRMS
	}
	dec, err := l.Receiver().DecodeUplink(recording, l.Config().CarrierHz, l.Node().Bitrate(), 0)
	if err == nil && dec != nil {
		// If anything decoded it must be CRC-clean and correct.
		want := res.UplinkBits[len(phy.PreambleBits):]
		if phy.BER(want, dec.Bits) > 0 {
			t.Error("decoder returned a CRC-passing frame with bit errors")
		}
	}
	// Either way the link-layer exchange path degrades gracefully: a
	// retry on the clean channel succeeds.
	reply, _, _, err := l.Exchange(frame.Query{Dest: 0x0A, Command: frame.CmdPing})
	if err != nil || reply == nil {
		t.Fatalf("retry on the clean channel failed: %v", err)
	}
}

func TestExchangeForeignAddressReturnsNoReply(t *testing.T) {
	l := newTestLink(t, DefaultLinkConfig(), 500)
	if !l.PowerUp(60) {
		t.Fatal("power up failed")
	}
	reply, airtime, _, err := l.Exchange(frame.Query{Dest: 0x55, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	if reply != nil {
		t.Error("foreign address should produce no reply")
	}
	if airtime <= 0 {
		t.Error("airtime should still accrue (the query was transmitted)")
	}
}

func TestBatteryAssistedLinkBeyondHarvestRange(t *testing.T) {
	// The §1 hybrid end to end: at a range where the battery-free node
	// cannot harvest, the battery-assisted node boots and communicates.
	cfg := DefaultLinkConfig()
	cfg.Tank = channel.PoolB()
	cfg.DriveV = 60
	cfg.ProjectorPos = channel.Vec3{X: 0.6, Y: 0.4, Z: 0.5}
	cfg.HydrophonePos = channel.Vec3{X: 0.8, Y: 0.6, Z: 0.5}
	cfg.NodePos = channel.Vec3{X: 0.6, Y: 8.4, Z: 0.5}

	free, err := NewPaperNode(0x31, 200, sensors.RoomTank())
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewPaperProjector(cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	freeLink, err := NewLink(cfg, free, proj)
	if err != nil {
		t.Fatal(err)
	}
	if freeLink.CanEverPowerUp() {
		t.Fatal("test setup: battery-free node should NOT power at this range")
	}

	assisted, err := NewBatteryAssistedNode(0x32, 200, 2000, sensors.RoomTank())
	if err != nil {
		t.Fatal(err)
	}
	proj2, err := NewPaperProjector(cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewLink(cfg, assisted, proj2)
	if err != nil {
		t.Fatal(err)
	}
	if !link.PowerUp(5) {
		t.Fatal("battery node should boot instantly")
	}
	res, err := link.RunQuery(frame.Query{Dest: 0x32, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoded == nil || res.UplinkBER > 0 {
		t.Fatalf("battery-assisted uplink failed (BER %g)", res.UplinkBER)
	}
	if assisted.BatteryRemaining() >= 2000 {
		t.Error("battery should have been debited")
	}
	if node.PowerState(assisted.State()) == node.Off {
		t.Error("node should still be running")
	}
}

func TestBrownoutMidOperationRecovers(t *testing.T) {
	// Drain the node below the brown-out threshold, then re-charge: the
	// node must boot again and answer (the supercapacitor power cycle).
	l := newTestLink(t, DefaultLinkConfig(), 500)
	if !l.PowerUp(60) {
		t.Fatal("initial power up failed")
	}
	n := l.Node()
	// No field: idle draw drains the cap.
	for i := 0; i < 2_000_000 && n.State() != node.Off; i++ {
		n.HarvestStep(0, 15000, 1.482e6, 0.01)
	}
	if n.State() != node.Off {
		t.Fatal("node should brown out")
	}
	if !l.PowerUp(120) {
		t.Fatal("recharge failed")
	}
	res, err := l.RunQuery(frame.Query{Dest: 0x0A, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoded == nil || res.UplinkBER > 0 {
		t.Error("post-recovery exchange failed")
	}
}

func TestSwimmingPoolValidation(t *testing.T) {
	// §5.1d: "we also validated that the system operates correctly in an
	// indoor swimming pool" — the full exchange in the third environment.
	cfg := DefaultLinkConfig()
	cfg.Tank = channel.SwimmingPool()
	cfg.ProjectorPos = channel.Vec3{X: 3, Y: 3, Z: 1}
	cfg.HydrophonePos = channel.Vec3{X: 3.2, Y: 3.1, Z: 1}
	cfg.NodePos = channel.Vec3{X: 4.1, Y: 4.2, Z: 1}
	l := newTestLink(t, cfg, 500)
	if !l.PowerUp(120) {
		t.Fatal("node failed to power in the pool")
	}
	res, err := l.RunQuery(frame.Query{Dest: 0x0A, Command: frame.CmdReadSensor, Param: byte(frame.SensorPressure)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoded == nil || res.UplinkBER > 0 {
		t.Fatalf("pool exchange failed (BER %g)", res.UplinkBER)
	}
	_, val, err := node.ParseSensorPayload(res.Decoded.Frame.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-1013) > 2 {
		t.Errorf("pressure %g mbar, want ~1013", val)
	}
}
