package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"pab/internal/baseline"
	"pab/internal/channel"
	"pab/internal/core"
	"pab/internal/frame"
	"pab/internal/node"
	"pab/internal/phy"
	"pab/internal/piezo"
	"pab/internal/projector"
	"pab/internal/rectifier"
	"pab/internal/sensors"
	"pab/internal/stats"
)

// ---------------------------------------------------------------------------
// Fig 2 — received & demodulated backscatter trace
// ---------------------------------------------------------------------------

// Fig2Point is one sample of the demodulated amplitude trace.
type Fig2Point struct {
	TimeS     float64
	Amplitude float64
}

// Fig2 runs the §3.2 "Testing the Waters" experiment: projector CW from
// t = 0.2 s (the paper's 2.2 s, shifted), node toggling every 100 ms
// from t = 0.8 s.
func Fig2() ([]Fig2Point, error) {
	cfg := core.DefaultLinkConfig()
	cfg.NoiseRMS = 0.2
	n, err := core.NewPaperNode(0x01, 500, sensors.RoomTank())
	if err != nil {
		return nil, err
	}
	proj, err := core.NewPaperProjector(cfg.SampleRate)
	if err != nil {
		return nil, err
	}
	link, err := core.NewLink(cfg, n, proj)
	if err != nil {
		return nil, err
	}
	tr, err := link.RunTrace(1.6, 0.2, 0.8, 5)
	if err != nil {
		return nil, err
	}
	out := make([]Fig2Point, len(tr.Time))
	for i := range tr.Time {
		out[i] = Fig2Point{TimeS: tr.Time[i], Amplitude: tr.Amplitude[i]}
	}
	return out, nil
}

// RunFig2 prints the trace decimated to ~100 Hz for plotting.
func RunFig2(w io.Writer) error {
	pts, err := Fig2()
	if err != nil {
		return err
	}
	if err := header(w, "time_s", "amplitude_v"); err != nil {
		return err
	}
	step := len(pts) / 160
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(pts); i += step {
		if err := row(w, pts[i].TimeS, pts[i].Amplitude); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fig 3 — recto-piezo rectified voltage vs downlink frequency
// ---------------------------------------------------------------------------

// Fig3Row is one frequency point of the two recto-piezo response curves.
type Fig3Row struct {
	FrequencyHz float64
	V15kHz      float64 // rectified voltage of the 15 kHz-matched node
	V18kHz      float64 // rectified voltage of the 18 kHz-matched node
}

// Fig3Config tunes the sweep.
type Fig3Config struct {
	StartHz, EndHz, StepHz float64
	// IncidentPa is the CW pressure amplitude at the node, chosen to put
	// the on-resonance peak near the paper's ≈4 V.
	IncidentPa float64
}

// DefaultFig3Config matches the paper's 11–21 kHz sweep.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{StartHz: 11000, EndHz: 21000, StepHz: 100, IncidentPa: 200}
}

// Fig3 sweeps the downlink frequency against both recto-piezos.
func Fig3(cfg Fig3Config) ([]Fig3Row, error) {
	if cfg.StepHz <= 0 || cfg.StartHz <= 0 || cfg.EndHz <= cfg.StartHz {
		return nil, fmt.Errorf("experiments: bad fig3 sweep %+v", cfg)
	}
	tr, err := piezo.New(piezo.PaperCylinder())
	if err != nil {
		return nil, err
	}
	rp15, err := node.NewRectoPiezo(tr, rectifier.Paper(), 15000)
	if err != nil {
		return nil, err
	}
	rp18, err := node.NewRectoPiezo(tr, rectifier.Paper(), 18000)
	if err != nil {
		return nil, err
	}
	rhoC := piezo.RhoC(1482, false)
	var rows []Fig3Row
	for f := cfg.StartHz; f <= cfg.EndHz+1e-9; f += cfg.StepHz {
		rows = append(rows, Fig3Row{
			FrequencyHz: f,
			V15kHz:      rp15.RectifiedVoltage(cfg.IncidentPa, f, rhoC),
			V18kHz:      rp18.RectifiedVoltage(cfg.IncidentPa, f, rhoC),
		})
	}
	return rows, nil
}

// RunFig3 prints the sweep.
func RunFig3(w io.Writer) error {
	rows, err := Fig3(DefaultFig3Config())
	if err != nil {
		return err
	}
	if err := header(w, "frequency_hz", "v_15khz_node", "v_18khz_node", "power_up_threshold"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := row(w, r.FrequencyHz, r.V15kHz, r.V18kHz, 2.5); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fig 7 — BER vs SNR
// ---------------------------------------------------------------------------

// Fig7Row is one operating point of the BER–SNR curve.
type Fig7Row struct {
	SNRdB float64
	BER   float64
	Bits  int
}

// Fig7Config tunes the sweep.
type Fig7Config struct {
	SNRsdB     []float64
	PacketBits int
	Packets    int
	Seed       int64
}

// DefaultFig7Config mirrors the paper's range (≈0–18 dB) with enough
// bits to resolve the 1e-5 floor.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		SNRsdB:     []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18},
		PacketBits: 500,
		Packets:    200,
		Seed:       7,
	}
}

// Fig7 measures FM0 ML-decoder BER against the paper's SNR definition
// (§6.1a) on an AWGN backscatter envelope. The BER floor is 1/total
// bits, like the paper's 1e-5 floor from its packet budget.
func Fig7(cfg Fig7Config) ([]Fig7Row, error) {
	if cfg.PacketBits < 2 || cfg.Packets < 1 {
		return nil, fmt.Errorf("experiments: bad fig7 config %+v", cfg)
	}
	const spb = 2 // one sample per half-bit decision: SNR is per-decision, as measured
	fm0, err := phy.NewFM0(spb)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rows []Fig7Row
	for _, snrDB := range cfg.SNRsdB {
		sigma := math.Pow(10, -snrDB/20) // modulation amplitude is ±1
		errors, total := 0, 0
		for p := 0; p < cfg.Packets; p++ {
			bits := make([]phy.Bit, cfg.PacketBits)
			for i := range bits {
				bits[i] = phy.Bit(rng.Intn(2))
			}
			wave, _ := fm0.Encode(bits, 1)
			for i := range wave {
				wave[i] += rng.NormFloat64() * sigma
			}
			got, _ := fm0.DecodeFrom(wave, len(bits), 1)
			errors += phy.CountBitErrors(bits, got)
			total += len(bits)
		}
		ber := float64(errors) / float64(total)
		if ber == 0 {
			ber = 1 / float64(total) // report the floor, like the paper
		}
		rows = append(rows, Fig7Row{SNRdB: snrDB, BER: ber, Bits: total})
	}
	return rows, nil
}

// RunFig7 prints the curve.
func RunFig7(w io.Writer) error {
	rows, err := Fig7(DefaultFig7Config())
	if err != nil {
		return err
	}
	if err := header(w, "snr_db", "ber", "bits"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := row(w, r.SNRdB, r.BER, r.Bits); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fig 8 — SNR vs backscatter bitrate
// ---------------------------------------------------------------------------

// Fig8Row is one bitrate operating point.
type Fig8Row struct {
	BitrateBps float64 // divider-quantised achieved rate
	MeanSNRdB  float64
	StdSNRdB   float64
	Trials     int
}

// Fig8Config tunes the sweep.
type Fig8Config struct {
	Bitrates []float64
	Trials   int
	NoiseRMS float64
	Seed     int64
}

// DefaultFig8Config uses the paper's bitrates and five trials each,
// one per jittered node placement (§6.1b).
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		Bitrates: []float64{100, 200, 400, 600, 800, 1000, 2000, 2800, 3000, 5000},
		Trials:   5,
		NoiseRMS: 40,
		Seed:     8,
	}
}

// Fig8 runs the full link at each bitrate and measures the uplink SNR
// the paper's way. The node sits within a metre of the projector and
// hydrophone, as in §6.1b.
func Fig8(cfg Fig8Config) ([]Fig8Row, error) {
	if len(cfg.Bitrates) == 0 || cfg.Trials < 1 {
		return nil, fmt.Errorf("experiments: bad fig8 config %+v", cfg)
	}
	// The paper repositioned equipment between trials; jittering the
	// node placement likewise averages out coherent multipath notches.
	jitter := []channel.Vec3{
		{X: 0, Y: 0, Z: 0},
		{X: 0.17, Y: -0.12, Z: 0.08},
		{X: -0.13, Y: 0.21, Z: -0.11},
		{X: 0.08, Y: 0.15, Z: 0.12},
		{X: -0.19, Y: -0.08, Z: -0.06},
	}
	var rows []Fig8Row
	for bi, br := range cfg.Bitrates {
		var snrsDB []float64
		achieved := br
		for trial := 0; trial < cfg.Trials; trial++ {
			lcfg := core.DefaultLinkConfig()
			lcfg.NoiseRMS = cfg.NoiseRMS
			lcfg.Seed = cfg.Seed + int64(bi*100+trial)
			j := jitter[trial%len(jitter)]
			lcfg.NodePos = channel.Vec3{
				X: lcfg.NodePos.X + j.X,
				Y: lcfg.NodePos.Y + j.Y,
				Z: lcfg.NodePos.Z + j.Z,
			}
			n, err := core.NewPaperNode(0x01, br, sensors.RoomTank())
			if err != nil {
				return nil, err
			}
			proj, err := core.NewPaperProjector(lcfg.SampleRate)
			if err != nil {
				return nil, err
			}
			link, err := core.NewLink(lcfg, n, proj)
			if err != nil {
				return nil, err
			}
			if err := link.EnsurePowered(60); err != nil {
				return nil, err
			}
			achieved = n.Bitrate()
			res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
			if err != nil {
				return nil, err
			}
			if res.Decoded != nil && res.Decoded.SNRLinear > 0 {
				snrsDB = append(snrsDB, res.Decoded.SNRdB())
			} else {
				// Undetectable uplink: charge the floor.
				snrsDB = append(snrsDB, -2)
			}
		}
		rows = append(rows, Fig8Row{
			BitrateBps: achieved,
			MeanSNRdB:  stats.Mean(snrsDB),
			StdSNRdB:   stats.StdDev(snrsDB),
			Trials:     len(snrsDB),
		})
	}
	return rows, nil
}

// RunFig8 prints the sweep.
func RunFig8(w io.Writer) error {
	rows, err := Fig8(DefaultFig8Config())
	if err != nil {
		return err
	}
	if err := header(w, "bitrate_bps", "snr_db_mean", "snr_db_std", "trials"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := row(w, r.BitrateBps, r.MeanSNRdB, r.StdSNRdB, r.Trials); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fig 9 — maximum power-up distance vs transmit voltage
// ---------------------------------------------------------------------------

// Fig9Row is one transmit-voltage point.
type Fig9Row struct {
	DriveV   float64
	PoolAMax float64 // metres (capped at the pool length)
	PoolBMax float64
}

// Fig9Config tunes the sweep.
type Fig9Config struct {
	DrivesV []float64
	StepM   float64
}

// DefaultFig9Config sweeps the paper's amplifier range.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		DrivesV: []float64{25, 50, 75, 100, 150, 200, 250, 300, 350},
		StepM:   0.25,
	}
}

// maxPowerUpRange scans node positions away from the projector along the
// pool's long axis and returns the farthest range at which the node's
// steady-state rectified voltage clears the 2.5 V power-up threshold.
func maxPowerUpRange(tank channel.Tank, driveV, stepM float64) (float64, error) {
	n, err := core.NewPaperNode(0x01, 500, sensors.RoomTank())
	if err != nil {
		return 0, err
	}
	proj, err := core.NewPaperProjector(96000)
	if err != nil {
		return 0, err
	}
	// Sweep along the pool diagonal — the longest placement each pool
	// allows, matching the paper's 5 m (Pool A) and 10 m (Pool B) caps.
	projPos := channel.Vec3{X: 0.3, Y: 0.3, Z: tank.LZ / 2}
	far := channel.Vec3{X: tank.LX - 0.3, Y: tank.LY - 0.3, Z: tank.LZ / 2}
	limit := projPos.Distance(far)
	dirX := (far.X - projPos.X) / limit
	dirY := (far.Y - projPos.Y) / limit
	rhoC := piezo.RhoC(tank.Water.SoundSpeed(), tank.Water.SalinityPSU > 5)
	fe := n.FrontEnd()
	iIdle := node.PaperMCU().IdlePowerW / 2.5
	srcAmp := proj.PressureAmplitude(driveV, 15000)
	opts := channel.Options{MaxOrder: 3, MinGain: 0.01, CarrierHz: 15000}
	for d := limit; d >= stepM; d -= stepM {
		pos := channel.Vec3{X: projPos.X + dirX*d, Y: projPos.Y + dirY*d, Z: tank.LZ / 2}
		if !tank.Contains(pos) {
			continue
		}
		ir, err := tank.Response(projPos, pos, 96000, opts)
		if err != nil {
			return 0, err
		}
		g := ir.Gain(15000)
		amp := srcAmp * math.Hypot(real(g), imag(g))
		voc := fe.RectifiedVoltage(amp, 15000, rhoC)
		vss := voc - iIdle*fe.Rect.OutputResistance()
		sustainable := fe.SustainablePower(amp, 15000, rhoC)
		if vss >= 2.5 && sustainable >= node.PaperMCU().IdlePowerW {
			return d, nil
		}
	}
	return 0, nil
}

// Fig9 sweeps transmit voltage against both pools.
func Fig9(cfg Fig9Config) ([]Fig9Row, error) {
	if len(cfg.DrivesV) == 0 || cfg.StepM <= 0 {
		return nil, fmt.Errorf("experiments: bad fig9 config %+v", cfg)
	}
	var rows []Fig9Row
	for _, v := range cfg.DrivesV {
		a, err := maxPowerUpRange(channel.PoolA(), v, cfg.StepM)
		if err != nil {
			return nil, err
		}
		b, err := maxPowerUpRange(channel.PoolB(), v, cfg.StepM)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{DriveV: v, PoolAMax: a, PoolBMax: b})
	}
	return rows, nil
}

// RunFig9 prints the sweep.
func RunFig9(w io.Writer) error {
	rows, err := Fig9(DefaultFig9Config())
	if err != nil {
		return err
	}
	if err := header(w, "drive_v", "pool_a_max_m", "pool_b_max_m"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := row(w, r.DriveV, r.PoolAMax, r.PoolBMax); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fig 10 — SINR before/after collision projection at 8 locations
// ---------------------------------------------------------------------------

// Fig10Row is one node-placement trial.
type Fig10Row struct {
	Location     int
	BeforeDB     [2]float64
	AfterDB      [2]float64
	BERBefore    [2]float64
	BERAfter     [2]float64
	ConditionNum float64
}

// fig10Locations are the eight placements of the two nodes in Pool A.
// Like the paper's trials, placements are ones where both nodes power
// up and operate — spots where a node sits in a deep double fade (no
// usable 18 kHz two-hop channel) are not usable experiment locations.
var fig10Locations = [8][2]channel.Vec3{
	{{X: 1.2, Y: 1.5, Z: 0.6}, {X: 2.0, Y: 2.2, Z: 0.7}},
	{{X: 0.9, Y: 2.0, Z: 0.5}, {X: 2.3, Y: 1.2, Z: 0.6}},
	{{X: 1.5, Y: 2.8, Z: 0.7}, {X: 2.5, Y: 3.2, Z: 0.5}},
	{{X: 1.3, Y: 2.1, Z: 0.5}, {X: 2.35, Y: 1.55, Z: 0.65}},
	{{X: 2.1, Y: 2.7, Z: 0.75}, {X: 1.2, Y: 3.1, Z: 0.55}},
	{{X: 1.6, Y: 1.8, Z: 0.6}, {X: 2.2, Y: 1.4, Z: 0.7}},
	{{X: 0.8, Y: 2.9, Z: 0.6}, {X: 2.2, Y: 2.0, Z: 0.6}},
	{{X: 1.4, Y: 3.3, Z: 0.5}, {X: 2.4, Y: 1.9, Z: 0.8}},
}

// Fig10 runs the concurrent-transmission experiment at the eight
// locations.
func Fig10() ([]Fig10Row, error) {
	var rows []Fig10Row
	for loc, positions := range fig10Locations {
		cfg := core.DefaultConcurrentConfig()
		cfg.NodePos = positions
		cfg.Seed = int64(loc + 1)
		nodes, proj, err := buildConcurrentNodes(cfg)
		if err != nil {
			return nil, err
		}
		res, err := core.RunConcurrent(cfg, nodes, proj)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{
			Location:     loc + 1,
			BeforeDB:     res.SINRBeforeDB(),
			AfterDB:      res.SINRAfterDB(),
			BERBefore:    res.BERBefore,
			BERAfter:     res.BERAfter,
			ConditionNum: res.Condition,
		})
	}
	return rows, nil
}

// buildConcurrentNodes provisions the two recto-piezo nodes, powered and
// with the second switched to its 18 kHz circuit.
func buildConcurrentNodes(cfg core.ConcurrentConfig) ([2]*node.Node, *projector.Projector, error) {
	var nodes [2]*node.Node
	rhoC := piezo.RhoC(cfg.Tank.Water.SoundSpeed(), false)
	for k := 0; k < 2; k++ {
		n, err := core.NewPaperNode(byte(k+1), cfg.BitrateBps, sensors.RoomTank())
		if err != nil {
			return nodes, nil, err
		}
		for i := 0; i < 200000 && n.State() == node.Off; i++ {
			n.HarvestStep(3000, cfg.Carriers[k], rhoC, 1e-3)
		}
		if n.State() == node.Off {
			return nodes, nil, fmt.Errorf("experiments: node %d failed to power", k)
		}
		nodes[k] = n
	}
	if _, err := nodes[1].HandleQuery(frame.Query{Dest: 2, Command: frame.CmdSwitchResonance, Param: 1}); err != nil {
		return nodes, nil, err
	}
	proj, err := core.NewPaperProjector(cfg.SampleRate)
	if err != nil {
		return nodes, nil, err
	}
	return nodes, proj, nil
}

// RunFig10 prints the per-location SINRs.
func RunFig10(w io.Writer) error {
	rows, err := Fig10()
	if err != nil {
		return err
	}
	if err := header(w, "location", "sinr_before_n1_db", "sinr_before_n2_db",
		"sinr_after_n1_db", "sinr_after_n2_db", "ber_after_n1", "ber_after_n2", "condition"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := row(w, r.Location, r.BeforeDB[0], r.BeforeDB[1],
			r.AfterDB[0], r.AfterDB[1], r.BERAfter[0], r.BERAfter[1], r.ConditionNum); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fig 11 — node power consumption vs bitrate
// ---------------------------------------------------------------------------

// Fig11Row is one power operating point.
type Fig11Row struct {
	Mode       string
	BitrateBps float64
	PowerUW    float64
}

// Fig11 tabulates the MCU power model (§6.4).
func Fig11() []Fig11Row {
	m := node.PaperMCU()
	rows := []Fig11Row{{Mode: "idle", BitrateBps: 0, PowerUW: m.Power(node.Idle, 0) * 1e6}}
	for _, br := range []float64{100, 200, 400, 500, 1000, 1500, 2000, 2500, 3000} {
		quant, err := m.AchievableBitrate(br)
		if err != nil {
			continue
		}
		rows = append(rows, Fig11Row{
			Mode:       "backscatter",
			BitrateBps: quant,
			PowerUW:    m.Power(node.Backscattering, quant) * 1e6,
		})
	}
	return rows
}

// RunFig11 prints the table.
func RunFig11(w io.Writer) error {
	if err := header(w, "mode", "bitrate_bps", "power_uw"); err != nil {
		return err
	}
	for _, r := range Fig11() {
		if err := row(w, r.Mode, r.BitrateBps, r.PowerUW); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// §6.5 — sensing applications
// ---------------------------------------------------------------------------

// SensingRow is one end-to-end sensor reading.
type SensingRow struct {
	Sensor   string
	Value    float64
	Expected float64
	Unit     string
	BER      float64
}

// Sensing runs full link exchanges for all three sensors of §6.5.
func Sensing() ([]SensingRow, error) {
	env := sensors.RoomTank()
	lcfg := core.DefaultLinkConfig()
	n, err := core.NewPaperNode(0x05, 500, env)
	if err != nil {
		return nil, err
	}
	proj, err := core.NewPaperProjector(lcfg.SampleRate)
	if err != nil {
		return nil, err
	}
	link, err := core.NewLink(lcfg, n, proj)
	if err != nil {
		return nil, err
	}
	if err := link.EnsurePowered(60); err != nil {
		return nil, err
	}
	targets := []struct {
		id       frame.SensorID
		expected float64
		unit     string
	}{
		{frame.SensorPH, env.PH, "pH"},
		{frame.SensorTemperature, env.TemperatureC, "degC"},
		{frame.SensorPressure, env.PressureBar * 1000, "mbar"},
	}
	var rows []SensingRow
	for _, tgt := range targets {
		res, err := link.RunQuery(frame.Query{Dest: 0x05, Command: frame.CmdReadSensor, Param: byte(tgt.id)})
		if err != nil {
			return nil, err
		}
		if res.Decoded == nil || res.UplinkBER > 0 {
			return nil, fmt.Errorf("experiments: %v exchange failed (ber %g)", tgt.id, res.UplinkBER)
		}
		_, val, err := node.ParseSensorPayload(res.Decoded.Frame.Payload)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SensingRow{
			Sensor:   tgt.id.String(),
			Value:    val,
			Expected: tgt.expected,
			Unit:     tgt.unit,
			BER:      res.UplinkBER,
		})
	}
	return rows, nil
}

// RunSensing prints the readings.
func RunSensing(w io.Writer) error {
	rows, err := Sensing()
	if err != nil {
		return err
	}
	if err := header(w, "sensor", "value", "expected", "unit", "uplink_ber"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := row(w, r.Sensor, r.Value, r.Expected, r.Unit, r.BER); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Baseline comparison (§2, §3.2)
// ---------------------------------------------------------------------------

// RunBaseline prints PAB against the active-modem and harvest-beacon
// comparators.
func RunBaseline(w io.Writer) error {
	rows := baseline.Compare(baseline.PaperPAB(), baseline.WHOIClassModem(), baseline.FishTagBeacon())
	if err := header(w, "system", "energy_per_bit_j", "throughput_bps"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := row(w, r.System, r.EnergyPerBitJ, r.ThroughputBps); err != nil {
			return err
		}
	}
	return nil
}
