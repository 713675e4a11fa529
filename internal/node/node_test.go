package node

import (
	"math"
	"testing"

	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/piezo"
	"pab/internal/rectifier"
	"pab/internal/sensors"
)

func testFrontEnd(t *testing.T, tunedHz float64) *RectoPiezo {
	t.Helper()
	tr, err := piezo.New(piezo.PaperCylinder())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRectoPiezo(tr, rectifier.Paper(), tunedHz)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

func testNode(t *testing.T, addr byte) *Node {
	t.Helper()
	n, err := New(Config{
		Addr:       addr,
		FrontEnds:  []*RectoPiezo{testFrontEnd(t, 15000), testFrontEnd(t, 18000)},
		MCU:        PaperMCU(),
		Cap:        rectifier.PaperSupercap(),
		LDO:        rectifier.PaperLDO(),
		BitrateBps: 1000,
		Env:        sensors.RoomTank(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

const rhoC = 1.482e6 // fresh water at 20 °C

func TestRectoPiezoTuning(t *testing.T) {
	rp15 := testFrontEnd(t, 15000)
	rp18 := testFrontEnd(t, 18000)
	// Each harvests best at its own tuned frequency (inductor loss costs
	// a few percent of a perfect match).
	if rp15.HarvestQuality(15000) < 0.9 {
		t.Errorf("15 kHz quality at 15 kHz: %g", rp15.HarvestQuality(15000))
	}
	if rp18.HarvestQuality(18000) < 0.9 {
		t.Errorf("18 kHz quality at 18 kHz: %g", rp18.HarvestQuality(18000))
	}
	// And the responses are complementary (Fig 3): each node rectifies
	// more at its own frequency than the other node does there.
	p := 2000.0 // Pa
	v15at15 := rp15.RectifiedVoltage(p, 15000, rhoC)
	v18at15 := rp18.RectifiedVoltage(p, 15000, rhoC)
	v15at18 := rp15.RectifiedVoltage(p, 18000, rhoC)
	v18at18 := rp18.RectifiedVoltage(p, 18000, rhoC)
	if v15at15 <= v18at15 {
		t.Errorf("at 15 kHz: own %g ≤ other %g", v15at15, v18at15)
	}
	if v18at18 <= v15at18 {
		t.Errorf("at 18 kHz: own %g ≤ other %g", v18at18, v15at18)
	}
}

func TestRectifiedVoltagePeaksAtTunedFrequency(t *testing.T) {
	rp := testFrontEnd(t, 15000)
	p := 2000.0
	peak := rp.RectifiedVoltage(p, 15000, rhoC)
	for _, f := range []float64{11000, 12000, 13000, 17500, 19000, 21000} {
		if v := rp.RectifiedVoltage(p, f, rhoC); v >= peak {
			t.Errorf("V(%g Hz) = %g should be below peak %g", f, v, peak)
		}
	}
}

func TestModulationDepthMaximalInBand(t *testing.T) {
	rp := testFrontEnd(t, 15000)
	depth := func(f float64) float64 { return rp.Transducer.ModulationDepth(rp.LoadImpedance(f), f) }
	in := depth(15000)
	out := depth(21000)
	if in <= out {
		t.Errorf("in-band depth %g should exceed out-of-band %g", in, out)
	}
	if in <= 0 || in > 1 {
		t.Errorf("depth %g out of range", in)
	}
}

func TestMCUPowerMatchesFig11(t *testing.T) {
	m := PaperMCU()
	if p := m.Power(Idle, 0); math.Abs(p-124e-6) > 1e-9 {
		t.Errorf("idle power %g, want 124 µW", p)
	}
	// Backscatter draw is ≈500 µW across the Fig 11 bitrates.
	for _, br := range []float64{100, 200, 400, 1000, 2000, 3000} {
		p := m.Power(Backscattering, br)
		if p < 450e-6 || p > 550e-6 {
			t.Errorf("backscatter power at %g bps: %g, want ~500 µW", br, p)
		}
	}
	// And grows (slightly) with bitrate.
	if m.Power(Backscattering, 3000) <= m.Power(Backscattering, 100) {
		t.Error("switching power should grow with bitrate")
	}
	if m.Power(Off, 0) != 0 {
		t.Error("off power should be 0")
	}
}

func TestAchievableBitrateQuantisation(t *testing.T) {
	m := PaperMCU()
	cases := []struct{ req, wantLo, wantHi float64 }{
		{100, 99, 101},
		{1000, 960, 1040},
		{2800, 2700, 2900},
		{5000, 4500, 5500},
	}
	for _, tc := range cases {
		got, err := m.AchievableBitrate(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if got < tc.wantLo || got > tc.wantHi {
			t.Errorf("AchievableBitrate(%g) = %g", tc.req, got)
		}
	}
	if _, err := m.AchievableBitrate(0); err == nil {
		t.Error("zero bitrate should error")
	}
	// Requests beyond the crystal clamp to the crystal rate.
	if got, _ := m.AchievableBitrate(1e6); got != m.CrystalHz {
		t.Errorf("overclocked request returned %g", got)
	}
}

func TestNodeColdStartAndBrownout(t *testing.T) {
	n := testNode(t, 0x01)
	if n.State() != Off {
		t.Fatal("node should start off")
	}
	// Strong downlink at the tuned frequency charges the cap past 2.5 V.
	steps := 0
	for n.State() == Off && steps < 200000 {
		n.HarvestStep(3000, 15000, rhoC, 1e-3)
		steps++
	}
	if n.State() != Idle {
		t.Fatalf("node failed to power on (cap %.2f V)", n.CapVoltage())
	}
	// Removing the downlink eventually browns the node out.
	for i := 0; i < 10_000_000 && n.State() != Off; i++ {
		n.HarvestStep(0, 15000, rhoC, 1e-2)
	}
	if n.State() != Off {
		t.Errorf("node should brown out without a downlink (cap %.2f V)", n.CapVoltage())
	}
}

func TestNodeNoPowerNoBoot(t *testing.T) {
	n := testNode(t, 0x01)
	// A weak downlink (too far / too quiet) never powers the node up —
	// the mechanism behind the Fig 9 range limit.
	for i := 0; i < 100000; i++ {
		n.HarvestStep(50, 15000, rhoC, 1e-3)
	}
	if n.State() != Off {
		t.Errorf("50 Pa should not boot the node (cap %.2f V)", n.CapVoltage())
	}
}

func powerOn(t *testing.T, n *Node) {
	t.Helper()
	for i := 0; i < 200000 && n.State() == Off; i++ {
		n.HarvestStep(3000, n.FrontEnd().TunedHz, rhoC, 1e-3)
	}
	if n.State() == Off {
		t.Fatal("node did not power on")
	}
}

func TestHandleQueryPing(t *testing.T) {
	n := testNode(t, 0x42)
	powerOn(t, n)
	bits, err := n.HandleQuery(frame.Query{Dest: 0x42, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) == 0 {
		t.Fatal("addressed ping should produce uplink bits")
	}
	// Bits begin with the preamble.
	for i, b := range phy.PreambleBits {
		if bits[i] != b {
			t.Fatalf("uplink bit %d = %d, want preamble %d", i, bits[i], b)
		}
	}
	// The rest parses as a CRC-clean data frame from 0x42.
	raw, err := frame.FromBits(bits[len(phy.PreambleBits):])
	if err != nil {
		t.Fatal(err)
	}
	df, err := frame.UnmarshalDataFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if df.Source != 0x42 {
		t.Errorf("source %x, want 42", df.Source)
	}
}

func TestHandleQueryAddressing(t *testing.T) {
	n := testNode(t, 0x42)
	powerOn(t, n)
	// Someone else's query: silence, no error.
	bits, err := n.HandleQuery(frame.Query{Dest: 0x43, Command: frame.CmdPing})
	if err != nil || bits != nil {
		t.Errorf("foreign query: bits=%v err=%v, want nil/nil", bits, err)
	}
	// Broadcast: answered.
	bits, err = n.HandleQuery(frame.Query{Dest: frame.BroadcastAddr, Command: frame.CmdPing})
	if err != nil || bits == nil {
		t.Errorf("broadcast should be answered: %v", err)
	}
	// Unpowered node errors.
	cold := testNode(t, 0x42)
	if _, err := cold.HandleQuery(frame.Query{Dest: 0x42, Command: frame.CmdPing}); err == nil {
		t.Error("unpowered node should error")
	}
}

func TestHandleQuerySetBitrate(t *testing.T) {
	n := testNode(t, 0x01)
	powerOn(t, n)
	before := n.Bitrate()
	// Divider index 2 ⇒ 32768/32 = 1024 bps.
	if _, err := n.HandleQuery(frame.Query{Dest: 0x01, Command: frame.CmdSetBitrate, Param: 2}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.Bitrate()-1024) > 1e-9 {
		t.Errorf("bitrate %g, want 1024 (was %g)", n.Bitrate(), before)
	}
	// Bad divider index.
	if _, err := n.HandleQuery(frame.Query{Dest: 0x01, Command: frame.CmdSetBitrate, Param: 99}); err == nil {
		t.Error("bad divider index should error")
	}
}

func TestHandleQuerySwitchResonance(t *testing.T) {
	n := testNode(t, 0x01)
	powerOn(t, n)
	if n.FrontEnd().TunedHz != 15000 {
		t.Fatal("should start on the 15 kHz circuit")
	}
	if _, err := n.HandleQuery(frame.Query{Dest: 0x01, Command: frame.CmdSwitchResonance, Param: 1}); err != nil {
		t.Fatal(err)
	}
	if n.FrontEnd().TunedHz != 18000 {
		t.Errorf("active circuit tuned to %g, want 18000", n.FrontEnd().TunedHz)
	}
	if _, err := n.HandleQuery(frame.Query{Dest: 0x01, Command: frame.CmdSwitchResonance, Param: 5}); err == nil {
		t.Error("out-of-range circuit index should error")
	}
}

func TestHandleQuerySensors(t *testing.T) {
	n := testNode(t, 0x07)
	powerOn(t, n)
	cases := []struct {
		id   frame.SensorID
		want float64
		tol  float64
	}{
		{frame.SensorPH, 7.0, 0.05},
		{frame.SensorTemperature, 22.0, 0.1},
		{frame.SensorPressure, 1013, 2},
	}
	for _, tc := range cases {
		bits, err := n.HandleQuery(frame.Query{Dest: 0x07, Command: frame.CmdReadSensor, Param: byte(tc.id)})
		if err != nil {
			t.Fatalf("%v: %v", tc.id, err)
		}
		raw, err := frame.FromBits(bits[len(phy.PreambleBits):])
		if err != nil {
			t.Fatal(err)
		}
		df, err := frame.UnmarshalDataFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		id, val, err := ParseSensorPayload(df.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if id != tc.id {
			t.Errorf("sensor id %v, want %v", id, tc.id)
		}
		if math.Abs(val-tc.want) > tc.tol {
			t.Errorf("%v reading %g, want %g±%g", tc.id, val, tc.want, tc.tol)
		}
	}
	if _, err := n.HandleQuery(frame.Query{Dest: 0x07, Command: frame.CmdReadSensor, Param: 77}); err == nil {
		t.Error("unknown sensor should error")
	}
}

func TestParseSensorPayloadErrors(t *testing.T) {
	if _, _, err := ParseSensorPayload([]byte{1, 2}); err == nil {
		t.Error("short payload should error")
	}
	if _, _, err := ParseSensorPayload([]byte{99, 0, 0}); err == nil {
		t.Error("unknown id should error")
	}
}

// keyingEnvelope lays the PWM keying runs of bits end to end: the
// on/off envelope (1 = carrier on, 0 = off) a node's trigger sees.
func keyingEnvelope(p *phy.PWM, bits []phy.Bit) []float64 {
	var env []float64
	p.Keying(bits, func(level float64, samples int) {
		for range samples {
			env = append(env, level)
		}
	})
	return env
}

func TestDecodeDownlink(t *testing.T) {
	n := testNode(t, 0x05)
	powerOn(t, n)
	q := frame.Query{Dest: 0x05, Command: frame.CmdReadSensor, Param: byte(frame.SensorPH)}
	bits := append(append([]phy.Bit{}, phy.PreambleBits...), frame.Bits(q.Marshal())...)
	pwm, _ := phy.NewPWM(48)
	env := keyingEnvelope(pwm, bits)
	// Scale to a realistic received envelope with some noise floor.
	for i := range env {
		env[i] = env[i]*0.8 + 0.02
	}
	got, err := n.DecodeDownlink(env, 48)
	if err != nil {
		t.Fatal(err)
	}
	if got != q {
		t.Errorf("decoded %+v, want %+v", got, q)
	}
}

func TestDecodeDownlinkGarbage(t *testing.T) {
	n := testNode(t, 0x05)
	env := make([]float64, 5000)
	for i := range env {
		env[i] = float64(i%7) * 0.1
	}
	if _, err := n.DecodeDownlink(env, 48); err == nil {
		t.Error("garbage envelope should not decode")
	}
}

func TestStartBackscatterStates(t *testing.T) {
	n := testNode(t, 0x01)
	powerOn(t, n)
	bits := []phy.Bit{1, 0, 1, 1, 0}
	fs := 96000.0
	states, err := n.StartBackscatter(bits, fs)
	if err != nil {
		t.Fatal(err)
	}
	if n.State() != Backscattering {
		t.Error("node should be backscattering")
	}
	spb, _ := phy.SamplesPerBitFor(fs, n.Bitrate())
	if len(states) != len(bits)*spb {
		t.Errorf("schedule length %d, want %d", len(states), len(bits)*spb)
	}
	// Both states appear.
	var refl, abs int
	for _, s := range states {
		switch s {
		case piezo.Reflective:
			refl++
		case piezo.Absorptive:
			abs++
		}
	}
	if refl == 0 || abs == 0 {
		t.Error("schedule should toggle between states")
	}
	n.FinishBackscatter()
	if n.State() != Idle {
		t.Error("node should return to idle")
	}
	// Cold node cannot backscatter.
	cold := testNode(t, 0x02)
	if _, err := cold.StartBackscatter(bits, fs); err == nil {
		t.Error("cold node should error")
	}
}

func TestNodeValidation(t *testing.T) {
	fe := testFrontEnd(t, 15000)
	base := Config{
		Addr: 1, FrontEnds: []*RectoPiezo{fe}, MCU: PaperMCU(),
		Cap: rectifier.PaperSupercap(), LDO: rectifier.PaperLDO(),
		BitrateBps: 1000, Env: sensors.RoomTank(),
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no front ends", func(c *Config) { c.FrontEnds = nil }},
		{"nil front end", func(c *Config) { c.FrontEnds = []*RectoPiezo{nil} }},
		{"bad active index", func(c *Config) { c.ActiveFrontEnd = 3 }},
		{"nil cap", func(c *Config) { c.Cap = nil }},
		{"zero bitrate", func(c *Config) { c.BitrateBps = 0 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func testBatteryNode(t *testing.T, batteryJ float64) *Node {
	t.Helper()
	n, err := New(Config{
		Addr:       0x01,
		FrontEnds:  []*RectoPiezo{testFrontEnd(t, 15000)},
		MCU:        PaperMCU(),
		Cap:        rectifier.PaperSupercap(),
		LDO:        rectifier.PaperLDO(),
		BitrateBps: 500,
		BatteryJ:   batteryJ,
		Env:        sensors.RoomTank(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBatteryAssistedBootsWithoutCarrier(t *testing.T) {
	// The §1 hybrid: a battery-assisted node runs where the downlink is
	// too weak to harvest from — the deep-sea deployment case.
	n := testBatteryNode(t, 10) // 10 J ≈ years at idle
	n.HarvestStep(0, 15000, rhoC, 0.01)
	if n.State() == Off {
		t.Fatal("battery-assisted node should boot with no incident field")
	}
	// And it keeps running.
	for i := 0; i < 1000; i++ {
		n.HarvestStep(0, 15000, rhoC, 0.01)
	}
	if n.State() == Off {
		t.Error("battery node browned out with charge remaining")
	}
	if n.BatteryRemaining() >= 10 {
		t.Error("battery should have drained")
	}
}

func TestBatteryDrainsAtNodeBudgetNotTransmitterRates(t *testing.T) {
	// One hour at idle should cost ≈ 0.45 J (124 µW) — this is the whole
	// point of battery-assisted *backscatter*: communication costs µW.
	n := testBatteryNode(t, 10)
	for i := 0; i < 3600; i++ {
		n.HarvestStep(0, 15000, rhoC, 1.0)
	}
	used := 10 - n.BatteryRemaining()
	// Expect ~0.45 J plus the one-time capacitor top-ups.
	if used < 0.3 || used > 1.5 {
		t.Errorf("1 h idle used %g J, want ≈0.45", used)
	}
}

func TestBatteryExhaustionRevertsToHarvesting(t *testing.T) {
	n := testBatteryNode(t, 0.01) // tiny battery
	n.HarvestStep(0, 15000, rhoC, 0.01)
	if n.State() == Off {
		t.Fatal("should boot from battery")
	}
	for i := 0; i < 500000 && n.BatteryRemaining() > 0; i++ {
		n.HarvestStep(0, 15000, rhoC, 0.1)
	}
	if n.BatteryRemaining() > 0 {
		t.Fatal("battery should exhaust")
	}
	// With no field and no battery, the node eventually browns out.
	for i := 0; i < 500000 && n.State() != Off; i++ {
		n.HarvestStep(0, 15000, rhoC, 0.1)
	}
	if n.State() != Off {
		t.Error("exhausted node should brown out")
	}
}

func TestBatteryStillHarvestsWhenFieldPresent(t *testing.T) {
	// With a strong field the battery should barely drain (harvest
	// covers the draw).
	n := testBatteryNode(t, 10)
	for i := 0; i < 10000; i++ {
		n.HarvestStep(3000, 15000, rhoC, 0.01)
	}
	used := 10 - n.BatteryRemaining()
	if used > 0.02 {
		t.Errorf("strong-field battery drain %g J, want ≈0", used)
	}
}

func TestNegativeBatteryRejected(t *testing.T) {
	_, err := New(Config{
		Addr:       1,
		FrontEnds:  []*RectoPiezo{testFrontEnd(t, 15000)},
		MCU:        PaperMCU(),
		Cap:        rectifier.PaperSupercap(),
		LDO:        rectifier.PaperLDO(),
		BitrateBps: 500,
		BatteryJ:   -1,
		Env:        sensors.RoomTank(),
	})
	if err == nil {
		t.Error("negative battery should error")
	}
}

func TestDecodeDownlinkTruncatedQuery(t *testing.T) {
	n := testNode(t, 0x05)
	powerOn(t, n)
	// A valid preamble followed by too few bits.
	bits := append([]phy.Bit{}, phy.PreambleBits...)
	bits = append(bits, 1, 0, 1)
	pwm, _ := phy.NewPWM(48)
	env := keyingEnvelope(pwm, bits)
	if _, err := n.DecodeDownlink(env, 48); err == nil {
		t.Error("truncated query should error")
	}
	// Bad unit size.
	if _, err := n.DecodeDownlink(env, 1); err == nil {
		t.Error("invalid PWM unit should error")
	}
}

func TestStatusByteEncoding(t *testing.T) {
	cases := []struct {
		v    float64
		want byte
	}{
		{0, 0}, {2.5, 50}, {5.0, 100}, {-1, 0}, {99, 255},
	}
	for _, tc := range cases {
		if got := statusByte(tc.v); got != tc.want {
			t.Errorf("statusByte(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestBitrateForDividerTable(t *testing.T) {
	m := PaperMCU()
	// Index i → 32768/(8·2^i).
	if br := bitrateForDivider(m, 0); math.Abs(br-4096) > 1e-9 {
		t.Errorf("index 0 → %g, want 4096", br)
	}
	if br := bitrateForDivider(m, 8); math.Abs(br-16) > 1e-9 {
		t.Errorf("index 8 → %g, want 16", br)
	}
	if bitrateForDivider(m, 9) != 0 {
		t.Error("index > 8 should be rejected")
	}
}

func TestFindBitPattern(t *testing.T) {
	bits := []phy.Bit{0, 0, 1, 0, 1, 1, 0}
	if i := findBitPattern(bits, []phy.Bit{1, 0, 1}); i != 2 {
		t.Errorf("pattern at %d, want 2", i)
	}
	if i := findBitPattern(bits, []phy.Bit{1, 1, 1}); i != -1 {
		t.Errorf("missing pattern returned %d", i)
	}
	if i := findBitPattern(bits, nil); i != -1 {
		t.Error("empty pattern should return -1")
	}
	if i := findBitPattern([]phy.Bit{1}, []phy.Bit{1, 0}); i != -1 {
		t.Error("pattern longer than input should return -1")
	}
}

func TestUnknownCommandRejected(t *testing.T) {
	n := testNode(t, 0x01)
	powerOn(t, n)
	if _, err := n.HandleQuery(frame.Query{Dest: 0x01, Command: frame.Command(0x7F)}); err == nil {
		t.Error("unknown command should error")
	}
}

func TestPHSensingDutyCycle(t *testing.T) {
	n := testNode(t, 0x01)
	powerOn(t, n)
	before := n.CapVoltage()
	bits, err := n.HandleQuery(frame.Query{Dest: 0x01, Command: frame.CmdReadSensor, Param: byte(frame.SensorPH)})
	if err != nil || bits == nil {
		t.Fatalf("healthy node should sense pH: %v", err)
	}
	if n.CapVoltage() >= before {
		t.Error("the duty-cycled AFE should cost capacitor energy")
	}
	// A node hovering just above brown-out must refuse the measurement
	// rather than kill itself mid-reply.
	marginal := testNode(t, 0x02)
	powerOn(t, marginal)
	marginal.cfg.Cap.SetVoltage(marginal.cfg.LDO.PowerOffV + 0.001)
	if _, err := marginal.HandleQuery(frame.Query{Dest: 0x02, Command: frame.CmdReadSensor, Param: byte(frame.SensorPH)}); err == nil {
		t.Error("marginal node should refuse the pH measurement")
	}
	// Digital sensors (I2C, powered from the MCU rail) still work.
	if _, err := marginal.HandleQuery(frame.Query{Dest: 0x02, Command: frame.CmdReadSensor, Param: byte(frame.SensorTemperature)}); err != nil {
		t.Errorf("temperature should still read: %v", err)
	}
}
