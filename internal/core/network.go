package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"pab/internal/channel"
	"pab/internal/dsp"
	"pab/internal/mimo"
	"pab/internal/node"
	"pab/internal/phy"
	"pab/internal/piezo"
	"pab/internal/projector"
	"pab/internal/telemetry"
)

// ConcurrentConfig describes the two-node FDMA experiment of §6.3: one
// projector transmitting on two carriers, two recto-piezo nodes tuned to
// different resonances, one hydrophone decoding the collision.
type ConcurrentConfig struct {
	Tank          channel.Tank
	SampleRate    float64
	Carriers      [2]float64 // the nodes' resonance frequencies
	DriveV        float64
	ProjectorPos  channel.Vec3
	HydrophonePos channel.Vec3
	NodePos       [2]channel.Vec3
	BitrateBps    float64
	PayloadBits   int // concurrent payload length per node
	NoiseRMS      float64
	ChannelOrder  int
	Seed          int64
}

// DefaultConcurrentConfig returns the paper's §6.3 setup: 15 kHz and
// 18 kHz recto-piezos in Pool A.
func DefaultConcurrentConfig() ConcurrentConfig {
	return ConcurrentConfig{
		Tank:          channel.PoolA(),
		SampleRate:    96000,
		Carriers:      [2]float64{15000, 18000},
		DriveV:        100,
		ProjectorPos:  channel.Vec3{X: 0.5, Y: 0.5, Z: 0.65},
		HydrophonePos: channel.Vec3{X: 0.7, Y: 0.6, Z: 0.65},
		NodePos: [2]channel.Vec3{
			{X: 1.2, Y: 1.5, Z: 0.6},
			{X: 2.0, Y: 2.2, Z: 0.7},
		},
		// 200 bps keeps each FM0 half-bit longer than the tanks' echo
		// spread, so the flat-fading 2×2 channel model of §3.3.2 holds
		// across placements.
		BitrateBps:   200,
		PayloadBits:  64,
		NoiseRMS:     0.5,
		ChannelOrder: 2,
		Seed:         1,
	}
}

// ConcurrentResult reports the collision-decoding experiment for one
// placement.
type ConcurrentResult struct {
	// SINRBefore/SINRAfter are per-node linear SINRs before and after
	// zero-forcing projection (the two bar groups of Fig 10).
	SINRBefore [2]float64
	SINRAfter  [2]float64
	// BERBefore/BERAfter are per-node payload bit error rates decoding
	// without and with projection.
	BERBefore [2]float64
	BERAfter  [2]float64
	// Condition is the estimated channel matrix condition number.
	Condition float64
	// PayloadBits are the bits each node transmitted.
	PayloadBits [2][]phy.Bit
}

// SINRBeforeDB returns the before-projection SINRs in dB.
func (r *ConcurrentResult) SINRBeforeDB() [2]float64 {
	return [2]float64{toDB(r.SINRBefore[0]), toDB(r.SINRBefore[1])}
}

// SINRAfterDB returns the after-projection SINRs in dB.
func (r *ConcurrentResult) SINRAfterDB() [2]float64 {
	return [2]float64{toDB(r.SINRAfter[0]), toDB(r.SINRAfter[1])}
}

func toDB(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(x)
}

// RunConcurrent executes the collision experiment: both nodes are
// activated by a dual-tone downlink, send staggered training preambles,
// then backscatter their payloads simultaneously. The receiver
// downconverts at both carriers, estimates the 2×2 channel from the
// training windows, zero-forces, and measures SINR before and after
// projection (§3.3.2, Fig 10).
func RunConcurrent(cfg ConcurrentConfig, nodes [2]*node.Node, proj *projector.Projector) (*ConcurrentResult, error) {
	if nodes[0] == nil || nodes[1] == nil || proj == nil {
		return nil, fmt.Errorf("core: nil nodes or projector")
	}
	if cfg.SampleRate <= 0 || cfg.BitrateBps <= 0 || cfg.PayloadBits < 8 {
		return nil, fmt.Errorf("core: bad concurrent config")
	}
	if cfg.ChannelOrder == 0 {
		cfg.ChannelOrder = 2
	}
	sp := telemetry.StartSpan("concurrent_exchange").
		Attr("carrier0_hz", cfg.Carriers[0]).Attr("carrier1_hz", cfg.Carriers[1])
	defer sp.End()
	telemetry.Inc(telemetry.MCoreConcurrentRunsTotal)
	fs := cfg.SampleRate
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Propagation responses.
	opts := channel.Options{MaxOrder: cfg.ChannelOrder, MinGain: 0.02, CarrierHz: (cfg.Carriers[0] + cfg.Carriers[1]) / 2}
	var irPN, irNH [2]*channel.ImpulseResponse
	for k := 0; k < 2; k++ {
		var err error
		irPN[k], err = cfg.Tank.Response(cfg.ProjectorPos, cfg.NodePos[k], fs, opts)
		if err != nil {
			return nil, err
		}
		irNH[k], err = cfg.Tank.Response(cfg.NodePos[k], cfg.HydrophonePos, fs, opts)
		if err != nil {
			return nil, err
		}
	}
	irPH, err := cfg.Tank.Response(cfg.ProjectorPos, cfg.HydrophonePos, fs, opts)
	if err != nil {
		return nil, err
	}

	spb, err := phy.SamplesPerBitFor(fs, cfg.BitrateBps)
	if err != nil {
		return nil, err
	}
	fm0, err := phy.NewFM0(spb)
	if err != nil {
		return nil, err
	}

	// Schedule (sample indices in the projector timeline):
	//   [0, settle)                       carrier only
	//   [settle, settle+T)                node 0 trains alone
	//   [.., +T)                          node 1 trains alone
	//   [.., +P)                          both send payload concurrently
	settle := int(0.05 * fs)
	trainLen := len(phy.PreambleBits) * spb
	payLen := cfg.PayloadBits * spb
	total := settle + 2*trainLen + payLen + int(0.05*fs)

	// Dual-tone downlink: two carriers on through the whole schedule.
	var osc [2]*dsp.Phasor
	var tones [2]dsp.Steps
	for t, f := range cfg.Carriers {
		osc[t] = dsp.NewPhasor(f, fs)
		tones[t] = dsp.Steps{{At: 0, V: complex(proj.PressureAmplitude(cfg.DriveV, f), 0)}, {At: total}}
	}

	// Per-node switch schedules.
	res := &ConcurrentResult{}
	trainWave := fm0.EncodeTemplate(phy.PreambleBits)
	schedules := [2][]float64{}
	for k := 0; k < 2; k++ {
		bits := make([]phy.Bit, cfg.PayloadBits)
		for i := range bits {
			bits[i] = phy.Bit(rng.Intn(2))
		}
		res.PayloadBits[k] = bits
		payload, _ := fm0.Encode(bits, 1)
		sched := make([]float64, total)
		// -1 (absorptive) everywhere except own training and payload.
		for i := range sched {
			sched[i] = -1
		}
		tStart := settle + k*trainLen
		copy(sched[tStart:], trainWave)
		pStart := settle + 2*trainLen
		copy(sched[pStart:], payload)
		schedules[k] = sched
	}

	// The direct path of both tones, with room for the longest
	// scattered path.
	n := total + irPH.Spread()
	room := n
	for k := range irNH {
		room = max(room, total+irNH[k].Spread())
	}
	y := make([]float64, n, room)
	for t := range tones {
		y = superpose(y, n, osc[t], irPH.Carry(tones[t], osc[t].Omega()))
	}
	// Physical reflection: per node, per tone (backscatter is
	// frequency-agnostic but with frequency-dependent depth). One
	// buffer holds each node's reflection and then its scattered path.
	reflected := make([]float64, total, room)
	var field [2][fieldBlock]complex128
	for k := 0; k < 2; k++ {
		fe := nodes[k].FrontEnd()
		// The field of each tone at the node, as in RunQuery.
		var atNode [2]dsp.Steps
		for t := range tones {
			atNode[t] = irPN[k].Carry(tones[t], osc[t].Omega())
		}
		gains := [2][2]complex128{}
		for t, f := range cfg.Carriers {
			gains[t][0] = fe.ReflectionCoeff(piezo.Absorptive, f)
			gains[t][1] = fe.ReflectionCoeff(piezo.Reflective, f)
		}
		// The resonator slews between states over its ring time τ.
		tau := fe.ResponseTimeConstant()
		alpha := complex(1-math.Exp(-1/(tau*fs)), 0)
		g1 := gains[0][0]
		g2 := gains[1][0]
		reflected = reflected[:total]
		for lo := 0; lo < total; lo += fieldBlock {
			out := reflected[lo:min(lo+fieldBlock, total)]
			u1, u2 := field[0][:len(out)], field[1][:len(out)]
			osc[0].Modulate(u1, lo, atNode[0])
			osc[1].Modulate(u2, lo, atNode[1])
			for i := range out {
				state := 0
				if schedules[k][lo+i] > 0 {
					state = 1
				}
				g1 += alpha * (gains[0][state] - g1)
				g2 += alpha * (gains[1][state] - g2)
				out[i] = imag(g1*u1[i] + g2*u2[i])
			}
		}
		scat := irNH[k].ApplyInPlace(reflected)
		if len(scat) > len(y) {
			y = y[:len(scat)]
		}
		dsp.Add(y, scat)
		reflected = scat
	}
	noise := cfg.NoiseRMS
	if noise <= 0 {
		noise = 0.05
	}
	channel.AddWhiteNoise(y, noise, rng)

	// Receiver: record, downconvert at both carriers.
	recv, err := NewReceiver(fs)
	if err != nil {
		return nil, err
	}
	volts, err := recv.Hydro.Record(y)
	if err != nil {
		return nil, err
	}
	// The channel filters must reject the neighbouring carrier, which
	// sits only |f2−f1| away — tighter than the single-link cutoff.
	spacing := math.Abs(cfg.Carriers[1] - cfg.Carriers[0])
	cutoff := math.Min(4*phy.OccupiedBandwidth(cfg.BitrateBps), 0.4*spacing)
	var bb [2][]complex128
	for t, f := range cfg.Carriers {
		bb[t], err = recv.DemodulateBand(volts, f, cutoff)
		if err != nil {
			return nil, err
		}
	}

	// Windows in the receiver timeline. The switch schedules modulate
	// the field at the node in projector-timeline indices (pTone is
	// already propagation-delayed), so only the node→hydrophone hop
	// shifts the modulation at the receiver. Zero-phase filtering keeps
	// the edges centred.
	// Reference waveforms (0/1 levels) aligned to the windows.
	ref01 := make([]float64, len(trainWave))
	for i, v := range trainWave {
		ref01[i] = (v + 1) / 2
	}
	// Multipath can displace each node's effective modulation from the
	// geometric first-tap delay, so refine each node's delay by
	// maximising the training-window channel estimate on the node's own
	// frequency (standard training-based timing sync).
	delay := func(k int) int {
		base := int(irNH[k].Taps[0].DelaySeconds * fs)
		bestOff, bestMag := 0, -1.0
		step := spb / 8
		if step < 1 {
			step = 1
		}
		for off := -spb; off <= spb; off += step {
			start := settle + k*trainLen + base + off
			if start < 0 || start+trainLen > len(bb[k]) {
				continue
			}
			g := mimo.EstimateGain(bb[k][start:start+trainLen], ref01)
			if m := cmplx.Abs(g); m > bestMag {
				bestMag, bestOff = m, off
			}
		}
		return base + bestOff
	}
	win := func(k int) [2]int {
		s := settle + k*trainLen + delay(k)
		return [2]int{s, s + trainLen}
	}
	h, err := mimo.EstimateChannel(bb[0], bb[1], ref01, ref01, win(0), win(1))
	if err != nil {
		return nil, err
	}
	res.Condition = h.ConditionNumber()
	telemetry.Observe(telemetry.MCoreConcurrentCondition, res.Condition)

	// Payload section.
	payStart0 := settle + 2*trainLen + delay(0)
	payStart1 := settle + 2*trainLen + delay(1)
	refPay := func(k int) []float64 {
		w, _ := fm0.Encode(res.PayloadBits[k], 1)
		out := make([]float64, len(w))
		for i, v := range w {
			out[i] = (v + 1) / 2
		}
		return out
	}
	ref0 := refPay(0)
	ref1 := refPay(1)
	seg := func(x []complex128, start, n int) []complex128 {
		if start >= len(x) {
			return nil
		}
		end := start + n
		if end > len(x) {
			end = len(x)
		}
		return x[start:end]
	}
	n0 := len(ref0)
	n1 := len(ref1)
	half := spb / 2
	res.SINRBefore[0] = mimo.SINRBlocked(seg(bb[0], payStart0, n0), ref0, half)
	res.SINRBefore[1] = mimo.SINRBlocked(seg(bb[1], payStart1, n1), ref1, half)

	rec0, rec1, err := mimo.ZeroForce(bb[0], bb[1], h)
	if err != nil {
		return nil, err
	}
	res.SINRAfter[0] = mimo.SINRBlocked(seg(rec0, payStart0, n0), ref0, half)
	res.SINRAfter[1] = mimo.SINRBlocked(seg(rec1, payStart1, n1), ref1, half)

	// BER before/after via FM0 decoding of the coherent projection. The
	// projection has a sign ambiguity that the training phase resolves
	// in a real deployment, so decode with both polarities and keep the
	// better one.
	decodeBER := func(x []complex128, start int, bits []phy.Bit) float64 {
		s := seg(x, start, len(bits)*spb)
		if len(s) < spb {
			return 1
		}
		wave := CoherentWave(s)
		gotA, _ := fm0.DecodeFrom(wave, len(bits), 1)
		gotB, _ := fm0.DecodeFrom(wave, len(bits), -1)
		berA := phy.BER(bits, gotA)
		if berB := phy.BER(bits, gotB); berB < berA {
			return berB
		}
		return berA
	}
	res.BERBefore[0] = decodeBER(bb[0], payStart0, res.PayloadBits[0])
	res.BERBefore[1] = decodeBER(bb[1], payStart1, res.PayloadBits[1])
	res.BERAfter[0] = decodeBER(rec0, payStart0, res.PayloadBits[0])
	res.BERAfter[1] = decodeBER(rec1, payStart1, res.PayloadBits[1])
	return res, nil
}
