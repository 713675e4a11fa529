package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"pab/internal/channel"
	"pab/internal/dsp"
	"pab/internal/fault"
	"pab/internal/frame"
	"pab/internal/node"
	"pab/internal/phy"
	"pab/internal/piezo"
	"pab/internal/projector"
	"pab/internal/telemetry"
)

// LinkConfig describes a single projector–node–hydrophone deployment in
// a tank (the paper's Fig 6 setup).
type LinkConfig struct {
	Tank          channel.Tank
	SampleRate    float64
	CarrierHz     float64
	DriveV        float64
	PWMUnit       int // downlink PWM unit in samples
	ProjectorPos  channel.Vec3
	HydrophonePos channel.Vec3
	NodePos       channel.Vec3
	// NoiseRMS is white acoustic noise at the hydrophone in Pa. Zero
	// selects a quiet-tank default derived from the hydrophone floor.
	NoiseRMS float64
	// ChannelOrder is the image-method reflection order (default 2).
	ChannelOrder int
	// MaxReplyPayload bounds the uplink airtime budget the reader
	// allocates per query, in payload bytes (default 16). Replies are
	// short sensor frames, so budgeting for frame.MaxPayload would waste
	// most of the carrier tail.
	MaxReplyPayload int
	// NodeRadialSpeedMS models node mobility (the paper's §8 open
	// challenge): a radial drift toward (+) or away from (−) the reader
	// at this speed Doppler-scales the scattered path by 1 + 2v/c — a
	// carrier shift of 2v/c·fc and a matching bit-clock skew.
	NodeRadialSpeedMS float64
	// Seed drives the link's noise generator.
	Seed int64
}

// DefaultLinkConfig returns the paper's nominal single-link setup in
// Pool A: projector and hydrophone near one end, node ~1 m away (§6.1b
// places the node "within a meter of both the projector and the
// hydrophone").
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		Tank:       channel.PoolA(),
		SampleRate: 96000,
		CarrierHz:  15000,
		DriveV:     150,
		// 5 ms PWM units keep the node's envelope edges clean despite
		// several milliseconds of tank reverberation; the downlink is
		// slow, like an RFID reader's, while the uplink carries the data.
		PWMUnit:         480,
		ProjectorPos:    channel.Vec3{X: 0.5, Y: 0.5, Z: 0.65},
		HydrophonePos:   channel.Vec3{X: 0.7, Y: 0.6, Z: 0.65},
		NodePos:         channel.Vec3{X: 1.2, Y: 1.3, Z: 0.65},
		NoiseRMS:        0.5,
		ChannelOrder:    2,
		MaxReplyPayload: 16,
		Seed:            1,
	}
}

// Link is a live single-node deployment.
type Link struct {
	cfg  LinkConfig
	node *node.Node
	proj *projector.Projector
	recv *Receiver

	irPN *channel.ImpulseResponse // projector → node
	irPH *channel.ImpulseResponse // projector → hydrophone
	irNH *channel.ImpulseResponse // node → hydrophone

	rhoC float64
	rng  *rand.Rand

	fault  *fault.Engine // nil unless chaos is attached
	ladder []linkOp      // rate-adaptation rungs, 0 = most robust
	level  int           // current rung
}

// NewLink validates the configuration, places the elements in the tank
// and computes the propagation responses.
func NewLink(cfg LinkConfig, n *node.Node, proj *projector.Projector) (*Link, error) {
	if n == nil || proj == nil {
		return nil, fmt.Errorf("core: nil node or projector")
	}
	if cfg.SampleRate <= 0 || cfg.CarrierHz <= 0 || cfg.CarrierHz >= cfg.SampleRate/2 {
		return nil, fmt.Errorf("core: bad rates: fs=%g carrier=%g", cfg.SampleRate, cfg.CarrierHz)
	}
	if cfg.PWMUnit < 8 {
		return nil, fmt.Errorf("core: PWM unit %d too small", cfg.PWMUnit)
	}
	if cfg.ChannelOrder == 0 {
		cfg.ChannelOrder = 2
	}
	if cfg.MaxReplyPayload <= 0 || cfg.MaxReplyPayload > frame.MaxPayload {
		cfg.MaxReplyPayload = 16
	}
	opts := channel.Options{MaxOrder: cfg.ChannelOrder, MinGain: 0.02, CarrierHz: cfg.CarrierHz}
	irPN, err := cfg.Tank.Response(cfg.ProjectorPos, cfg.NodePos, cfg.SampleRate, opts)
	if err != nil {
		return nil, fmt.Errorf("core: projector→node: %w", err)
	}
	irPH, err := cfg.Tank.Response(cfg.ProjectorPos, cfg.HydrophonePos, cfg.SampleRate, opts)
	if err != nil {
		return nil, fmt.Errorf("core: projector→hydrophone: %w", err)
	}
	irNH, err := cfg.Tank.Response(cfg.NodePos, cfg.HydrophonePos, cfg.SampleRate, opts)
	if err != nil {
		return nil, fmt.Errorf("core: node→hydrophone: %w", err)
	}
	recv, err := NewReceiver(cfg.SampleRate)
	if err != nil {
		return nil, err
	}
	ladder := buildLadder(cfg)
	return &Link{
		cfg:    cfg,
		node:   n,
		proj:   proj,
		recv:   recv,
		irPN:   irPN,
		irPH:   irPH,
		irNH:   irNH,
		rhoC:   piezo.RhoC(cfg.Tank.Water.SoundSpeed(), cfg.Tank.Water.SalinityPSU > 5),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		ladder: ladder,
		level:  len(ladder) - 1,
	}, nil
}

// Node returns the link's node.
func (l *Link) Node() *node.Node { return l.node }

// Receiver returns the link's receiver.
func (l *Link) Receiver() *Receiver { return l.recv }

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// incidentAmplitude returns the steady-state CW pressure amplitude at
// the node for the configured drive, using the coherent multipath gain.
func (l *Link) incidentAmplitude(driveV float64) float64 {
	src := l.proj.PressureAmplitude(driveV, l.cfg.CarrierHz)
	g := l.irPN.Gain(l.cfg.CarrierHz)
	return src * math.Hypot(real(g), imag(g))
}

// PowerUp runs the coarse cold-start loop: the projector transmits CW
// while the node's supercapacitor charges, until the node boots or
// maxSeconds of simulated time elapse. It returns whether the node is
// powered. This phase runs at envelope resolution (the capacitor's
// τ ≈ seconds dwarfs the acoustic period).
func (l *Link) PowerUp(maxSeconds float64) bool {
	// The drive, carrier and water stay fixed, so the front end's
	// delivered power is evaluated once for the whole loop.
	p := l.node.FrontEnd().DeliveredPower(l.incidentAmplitude(l.cfg.DriveV), l.cfg.CarrierHz, l.rhoC)
	const dt = 0.01
	steps := int(maxSeconds / dt)
	for i := 0; i < steps; i++ {
		if l.node.HarvestDelivered(p, dt) != node.Off {
			return true
		}
	}
	return l.node.State() != node.Off
}

// CanEverPowerUp reports whether the node can power up *and keep
// running* at this range — the Fig 9 criterion ("consistently power up
// for sensing and communication"). Two conditions must hold: the
// rectified voltage under the idle load must clear the 2.5 V LDO
// threshold, and the sustainable harvested power must cover the idle
// draw (energy conservation).
func (l *Link) CanEverPowerUp() bool {
	amp := l.incidentAmplitude(l.cfg.DriveV)
	fe := l.node.FrontEnd()
	voc := fe.RectifiedVoltage(amp, l.cfg.CarrierHz, l.rhoC)
	iIdle := node.PaperMCU().IdlePowerW / 2.5
	vss := voc - iIdle*fe.Rect.OutputResistance()
	if vss < 2.5 {
		return false
	}
	return fe.SustainablePower(amp, l.cfg.CarrierHz, l.rhoC) >= node.PaperMCU().IdlePowerW
}

// ExchangeResult reports one downlink query / uplink response cycle.
type ExchangeResult struct {
	// Sent is the query the projector transmitted.
	Sent frame.Query
	// NodeDecodedQuery reports whether the node's PWM decoder recovered
	// the query.
	NodeDecodedQuery bool
	// UplinkBits are the bits the node backscattered (nil if it stayed
	// silent, e.g. the query addressed another node).
	UplinkBits []phy.Bit
	// Decoded is the receiver's result (nil when nothing decodable).
	Decoded *Decoded
	// UplinkBER is the raw bit error rate against UplinkBits.
	UplinkBER float64
	// CapVoltage after the exchange.
	CapVoltage float64
	// Recording is the hydrophone pressure recording (for inspection).
	Recording []float64
	// DecodeGate is the sample index the offline decoder searched from
	// (just past the reader's own downlink keying) — replay the decode
	// with DecodeUplink(Recording, …, DecodeGate).
	DecodeGate int
}

// processingMargin is the node's turnaround from decoding a query to
// backscattering its reply.
const processingMargin = 0.03

// queryTail returns the seconds of continuous carrier the projector
// sends after a query: the uplink budget — preamble plus the largest
// expected frame at the node's bitrate, with 30% slack — and a
// turnaround on either side.
func (l *Link) queryTail() float64 {
	uplinkBits := len(phy.PreambleBits) + frame.DataFrameBitLength(l.cfg.MaxReplyPayload)
	uplinkSeconds := float64(uplinkBits) / l.node.Bitrate() * 1.3
	return uplinkSeconds + 2*processingMargin
}

// RunQuery performs one complete interrogation cycle at the sample
// level: PWM query downlink, node decode, FM0 backscatter uplink,
// hydrophone decode. The node must already be powered (use PowerUp).
func (l *Link) RunQuery(q frame.Query) (*ExchangeResult, error) {
	if l.faultNodeOff() {
		return nil, faultQueryError(q)
	}
	if l.node.State() == node.Off {
		return nil, fmt.Errorf("core: node is not powered; call PowerUp first")
	}
	sp := telemetry.StartSpan("exchange").
		Attr("dest", int(q.Dest)).Attr("command", int(q.Command))
	defer sp.End()
	telemetry.Inc(telemetry.MCoreLinkQueriesTotal)
	res := &ExchangeResult{Sent: q, UplinkBER: 1}

	tail := l.queryTail()

	// 1. Downlink keying.
	spStage := sp.Child("modulate")
	keying, amp, err := l.proj.Query(q, l.cfg.DriveV, l.cfg.CarrierHz, l.cfg.PWMUnit, tail)
	if err != nil {
		spStage.End()
		return nil, err
	}
	nx := keying.End()
	spStage.Attr("samples", nx).End()
	queryEndX := nx - int(tail*l.cfg.SampleRate) // end of PWM section
	for i := range keying {
		keying[i].V *= complex(amp, 0)
	}

	// 2. Field at the node: the carrier times the keying's envelope
	// through irPN. Its in-phase rail is the one recording-length
	// buffer the exchange fills; the reflection, the scattered path and
	// the direct path are each written over it in turn.
	spStage = sp.Child("project")
	osc := l.recv.work().phasor(l.cfg.CarrierHz, l.cfg.SampleRate)
	w := osc.Omega()
	atNode := l.irPN.Carry(keying, w)
	pNode := l.fieldBuffer(nx)
	superpose(pNode, len(pNode), osc, atNode)
	spStage.End()

	// 3. Node-side envelope decode of the query.
	spStage = sp.Child("piezo")
	unitRate := l.cfg.SampleRate / float64(l.cfg.PWMUnit)
	envCut := math.Min(2*unitRate, l.cfg.SampleRate/4)
	nodeEnv, err := dsp.AmplitudeEnvelope(pNode[:min(queryEndX+int(0.01*l.cfg.SampleRate), len(pNode))], l.cfg.SampleRate, envCut, 4)
	if err != nil {
		spStage.End()
		return nil, err
	}
	decodedQ, err := l.node.DecodeDownlink(nodeEnv, l.cfg.PWMUnit)
	if err == nil && decodedQ == q {
		res.NodeDecodedQuery = true
		telemetry.Inc(telemetry.MCoreDownlinkDecodesTotal)
	} else {
		telemetry.Inc(telemetry.MCoreDownlinkDecodeFailuresTotal)
	}

	// 4. Node power bookkeeping over the exchange.
	spRect := sp.Child("rectify")
	l.trackHarvest(pNode, nx)
	spRect.Attr("cap_voltage", l.node.CapVoltage()).End()

	// The node's reply switches its load from sample start on.
	var states []piezo.SwitchState
	start := 0
	midFrameBrownout := false
	if res.NodeDecodedQuery {
		bits, err := l.node.HandleQuery(decodedQ)
		if err != nil {
			spStage.End()
			return nil, err
		}
		if bits != nil {
			res.UplinkBits = bits
			states, err = l.node.StartBackscatter(bits, l.cfg.SampleRate)
			if err != nil {
				return nil, err
			}
			// The uplink starts after the node finishes decoding plus a
			// turnaround, offset by the propagation delay to the node.
			delayPN := int(l.irPN.Taps[0].DelaySeconds * l.cfg.SampleRate)
			start = queryEndX + delayPN + int(processingMargin*l.cfg.SampleRate)
			if l.fault != nil {
				ulStart := l.fault.Now() + float64(start)/l.cfg.SampleRate
				ulDur := float64(len(states)) / l.cfg.SampleRate
				if keep, ok := l.fault.TruncationAt(ulStart); ok {
					states = states[:int(float64(len(states))*keep)]
					telemetry.Inc(telemetry.MCoreFaultTruncatedUplinksTotal)
				}
				if l.fault.BrownoutDuring(l.node.Addr(), ulStart, ulStart+ulDur) {
					states = states[:len(states)/2]
					midFrameBrownout = true
					telemetry.Inc(telemetry.MCoreFaultMidframeBrownoutsTotal)
				}
			}
		}
	}

	// The reflection coefficient Γ is complex (magnitude and phase), so
	// the reflected wave is real(Γ·field), the field being −j times the
	// carrier at the node. Γ is the absorptive load's but during the
	// reply, where the resonator's stored energy slews it between the
	// two loads' over its ring time τ rather than instantaneously — the
	// high-bitrate limiter of Fig 8. The reflection overwrites the
	// field's in-phase rail.
	absorbGain := l.node.FrontEnd().ReflectionCoeff(piezo.Absorptive, l.cfg.CarrierHz)
	reflGain := l.node.FrontEnd().ReflectionCoeff(piezo.Reflective, l.cfg.CarrierHz)
	tau := l.node.FrontEnd().ResponseTimeConstant()
	alpha := complex(1-math.Exp(-1/(tau*l.cfg.SampleRate)), 0)
	gSmooth := absorbGain
	reflected := pNode
	var field [fieldBlock]complex128
	for lo := 0; lo < len(reflected); lo += fieldBlock {
		out := reflected[lo:min(lo+fieldBlock, len(reflected))]
		u := field[:len(out)]
		osc.Modulate(u, lo, atNode)
		for i, v := range u {
			g := absorbGain
			if k := lo + i - start; k >= 0 && k < len(states) {
				target := absorbGain
				if states[k] == piezo.Reflective {
					target = reflGain
				}
				gSmooth += alpha * (target - gSmooth)
				g = gSmooth
			}
			out[i] = imag(g * v)
		}
	}
	if res.UplinkBits != nil {
		if midFrameBrownout {
			l.node.ForceBrownout()
		} else {
			l.node.FinishBackscatter()
		}
	}
	spStage.End() // piezo

	// 5. Hydrophone field: direct downlink + node reflections + noise,
	// the scattered path rendered over the reflection and the direct
	// path, the carrier times the keying's envelope through irPH, added
	// to it.
	spStage = sp.Child("channel")
	if l.cfg.NodeRadialSpeedMS != 0 {
		reflected = dopplerScale(reflected, l.cfg.NodeRadialSpeedMS, l.cfg.Tank.Water.SoundSpeed())
	}
	scattered := l.irNH.ApplyInPlace(reflected)
	if l.fault != nil {
		//pablint:ignore floatcmp UplinkGain returns the exact constant 1 when no fade window covers t
		if g := l.fault.UplinkGain(l.fault.Now()); g != 1 {
			for i := range scattered {
				scattered[i] *= g
			}
			telemetry.Inc(telemetry.MCoreFaultFadedUplinksTotal)
		}
	}
	y := superpose(scattered, nx+l.irPH.Spread(), osc, l.irPH.Carry(keying, w))
	noise := l.cfg.NoiseRMS
	if noise <= 0 {
		noise = 0.05
	}
	if l.fault != nil {
		noise *= l.fault.NoiseScale(l.fault.Now())
	}
	channel.AddWhiteNoise(y, noise, l.rng)
	if l.fault != nil {
		ft := l.fault.Now()
		dur := float64(len(y)) / l.cfg.SampleRate
		for _, b := range l.fault.BurstsIn(ft, ft+dur) {
			channel.AddImpulseBurst(y, l.cfg.SampleRate, b.StartS-ft, b.DurS, b.AmpPa, l.fault.Rand())
		}
		if level, ok := l.fault.ClipLevel(ft); ok {
			channel.Clip(y, level)
		}
		l.fault.Advance(dur)
	}
	spStage.Attr("samples", len(y)).End()
	res.Recording = y
	res.CapVoltage = l.node.CapVoltage()

	// 6. Offline decode, gated past the reader's own downlink keying.
	if res.UplinkBits != nil {
		gate := queryEndX + int(0.01*l.cfg.SampleRate)
		res.DecodeGate = gate
		dec, err := l.recv.DecodeUplinkTraced(sp, y, l.cfg.CarrierHz, l.node.Bitrate(), gate)
		if err == nil {
			res.Decoded = dec
			res.UplinkBER = phy.BER(res.UplinkBits[len(phy.PreambleBits):], dec.Bits)
		} else {
			// Keep the SNR measurement even when the CRC fails.
			snr, ber, merr := l.recv.MeasureUplinkSNR(y, l.cfg.CarrierHz, l.node.Bitrate(), res.UplinkBits, gate)
			if merr == nil {
				res.Decoded = &Decoded{SNRLinear: snr}
				res.UplinkBER = ber
			}
		}
		telemetry.ObserveN(telemetry.MCoreUplinkBer, berBuckets, res.UplinkBER)
	}
	return res, nil
}

// fieldBuffer returns a zeroed buffer for the node's field over n
// input samples, n + irPN.Spread() long, with room for every render an
// exchange writes over it in place: the scattered path, and the direct
// path added to it where that runs longer.
func (l *Link) fieldBuffer(n int) []float64 {
	return make([]float64, n+l.irPN.Spread(), n+max(l.irPH.Spread(), l.irPN.Spread()+l.irNH.Spread()))
}

// fieldBlock is how many samples of a carrier the synthesis modulates
// at a time, on the stack.
const fieldBlock = 1024

// superpose adds the carrier osc modulated by env to y over the samples
// 0 … m−1, Im(env(j)·e^{jωj}) + y[j], and returns y, first grown with
// zeros to m samples when it is shorter: in place when it has the room.
// The sample is a real carrier's through the response env came from
// (channel.ImpulseResponse.Carry).
func superpose(y []float64, m int, osc *dsp.Phasor, env dsp.Steps) []float64 {
	if n := len(y); n < m {
		y = slices.Grow(y, m-n)[:m]
		clear(y[n:])
	}
	var field [fieldBlock]complex128
	for lo := 0; lo < m; lo += fieldBlock {
		out := y[lo:min(lo+fieldBlock, m)]
		u := field[:len(out)]
		osc.Modulate(u, lo, env)
		for i, v := range u {
			out[i] = imag(v) + out[i]
		}
	}
	return y
}

// berBuckets resolve the raw uplink bit-error-rate range.
var berBuckets = []float64{0, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.5}

// trackHarvest advances the node's power domain over the duration of a
// sample-level exchange using 10 ms envelope blocks.
func (l *Link) trackHarvest(pNode []float64, nSamples int) {
	block := int(0.01 * l.cfg.SampleRate)
	invFs := 1 / l.cfg.SampleRate
	for start := 0; start < nSamples && start < len(pNode); start += block {
		end := start + block
		if end > len(pNode) {
			end = len(pNode)
		}
		amp := dsp.RMS(pNode[start:end]) * math.Sqrt2
		l.node.HarvestStep(amp, l.cfg.CarrierHz, l.rhoC, float64(end-start)*invFs)
		if l.node.State() == node.Off {
			return
		}
	}
}

// Trace reproduces Fig 2's demonstration: the projector transmits CW
// from startTx seconds, the node begins toggling its switch at
// toggleHz from startBackscatter seconds, and the demodulated
// received amplitude is returned.
type Trace struct {
	// Time axis in seconds and the demodulated amplitude (volts at the
	// recorder after carrier removal).
	Time      []float64
	Amplitude []float64
	// SampleRate of the (decimated) trace.
	SampleRate float64
}

// RunTrace generates the Fig 2 experiment: total duration, transmitter
// on at txStart, backscatter toggling (square wave at toggleHz) from
// bsStart. The demodulator's low-pass cutoff, 4·toggleHz + 50 Hz, must
// lie below fs/2, which also holds each switch state for at least four
// samples.
func (l *Link) RunTrace(total, txStart, bsStart, toggleHz float64) (*Trace, error) {
	if !(0 <= txStart && txStart < bsStart && bsStart < total) {
		return nil, fmt.Errorf("core: need 0 ≤ txStart < bsStart < total")
	}
	fs := l.cfg.SampleRate
	if !(toggleHz > 0) || math.IsInf(toggleHz, 0) {
		return nil, fmt.Errorf("core: toggle rate %g Hz must be positive and finite", toggleHz)
	}
	demodCut := 4*toggleHz + 50
	if demodCut >= fs/2 {
		return nil, fmt.Errorf("core: toggle rate %g Hz needs a %g Hz demodulation cutoff, at or above fs/2=%g", toggleHz, demodCut, fs/2)
	}
	halfPeriod := int(fs / (2 * toggleHz))
	osc := l.recv.work().phasor(l.cfg.CarrierHz, fs)
	w := osc.Omega()
	n := int(total * fs)
	cw := switchedOn(l.proj.PressureAmplitude(l.cfg.DriveV, l.cfg.CarrierHz), w, int(txStart*fs), n)
	// The node's reflection, the scattered path rendered over it and the
	// direct path added, as in RunQuery.
	atNode := l.irPN.Carry(cw, w)
	absorb := l.node.FrontEnd().ReflectionCoeff(piezo.Absorptive, l.cfg.CarrierHz)
	refl := l.node.FrontEnd().ReflectionCoeff(piezo.Reflective, l.cfg.CarrierHz)
	bsIdx := int(bsStart * fs)
	reflected := l.fieldBuffer(n)
	var field [fieldBlock]complex128
	for lo := 0; lo < len(reflected); lo += fieldBlock {
		out := reflected[lo:min(lo+fieldBlock, len(reflected))]
		u := field[:len(out)]
		osc.Modulate(u, lo, atNode)
		for k, v := range u {
			g := absorb
			if i := lo + k; i >= bsIdx && ((i-bsIdx)/halfPeriod)%2 == 0 {
				g = refl
			}
			out[k] = imag(g * v)
		}
	}
	y := superpose(l.irNH.ApplyInPlace(reflected), n+l.irPH.Spread(), osc, l.irPH.Carry(cw, w))
	noise := l.cfg.NoiseRMS
	if noise <= 0 {
		noise = 0.05
	}
	channel.AddWhiteNoise(y, noise, l.rng)

	volts, err := l.recv.Hydro.Record(y)
	if err != nil {
		return nil, err
	}
	bb, err := dsp.DownconvertLP(volts, l.cfg.CarrierHz, fs, demodCut, 4)
	if err != nil {
		return nil, err
	}
	env := dsp.Envelope(bb)
	// Decimate the trace for plotting (1 kHz is plenty for a 5 Hz
	// square wave).
	dec := int(fs / 1000)
	env = dsp.Decimate(env, dec)
	tr := &Trace{SampleRate: fs / float64(dec)}
	tr.Amplitude = env
	tr.Time = make([]float64, len(env))
	for i := range tr.Time {
		tr.Time[i] = float64(i) / tr.SampleRate
	}
	return tr, nil
}

// switchedOn returns the envelope of a carrier of amplitude amp at w
// radians per sample that is silent before sample on and runs to sample
// n, with its phase counting from on: amp·sin w(i−on), the carrier
// e^{jwi} times amp·e^{−jw·on}.
func switchedOn(amp, w float64, on, n int) dsp.Steps {
	sin, cos := math.Sincos(w * float64(on))
	return dsp.Steps{{At: on, V: complex(amp*cos, -amp*sin)}, {At: n}}
}

// dopplerScale time-compresses (approaching, v > 0) or dilates
// (receding) a waveform by the two-way Doppler factor 1 + 2v/c using
// linear interpolation. The monostatic-style factor of two reflects the
// double traversal: the wave closes on the moving node and the
// reflection closes on the receiver.
func dopplerScale(x []float64, radialSpeedMS, soundSpeed float64) []float64 {
	factor := 1 + 2*radialSpeedMS/soundSpeed
	if factor <= 0 {
		return nil
	}
	n := int(float64(len(x)) / factor)
	if n < 2 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		pos := float64(i) * factor
		j := int(pos)
		if j >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(j)
		out[i] = x[j]*(1-frac) + x[j+1]*frac
	}
	return out
}
