package fault

import (
	"math"

	"pab/internal/frame"
	"pab/internal/mac"
)

// OperatingPoint is one rung of the link-adaptation ladder: a downlink
// PWM symbol unit and an uplink payload budget. Robust rungs use a
// slower PWM unit (more energy per downlink symbol) and a smaller
// payload (less exposure of the weak backscatter uplink to impulses and
// drift); the uplink bitrate itself is fixed by the piezo resonance.
type OperatingPoint struct {
	// PayloadBytes is the uplink payload budget per reply.
	PayloadBytes int
	// PWMUnitS is the downlink PWM symbol unit in seconds.
	PWMUnitS float64
}

// ladder is the operating-point ladder, index 0 = most robust, last =
// fastest. Every node starts on the fastest rung.
var ladder = [...]OperatingPoint{
	{PayloadBytes: 4, PWMUnitS: 0.004},
	{PayloadBytes: 8, PWMUnitS: 0.003},
	{PayloadBytes: 16, PWMUnitS: 0.002},
	{PayloadBytes: 32, PWMUnitS: 0.0015},
	{PayloadBytes: 64, PWMUnitS: 0.001},
}

const (
	// uplinkBitrateBps is the fixed backscatter bitrate, the sim's
	// nominal piezo link rate.
	uplinkBitrateBps = 500
	// snr0 is the nominal per-bit uplink SNR (linear) with no faults
	// active: essentially error-free.
	snr0 = 12
	// turnaroundS is the downlink→uplink switch time.
	turnaroundS = 0.02
)

// LinkSim is a statistical per-exchange link simulator driven entirely
// by an Engine's fault timelines: it skips waveform synthesis and
// instead draws each exchange's outcome from the engine clock, the
// operating point and the faults active in the exchange's window. It is
// what makes whole-network chaos runs cheap enough to sweep.
type LinkSim struct {
	eng *Engine
	// adaptive enables the RateControl ladder; when false Downshift and
	// Upshift refuse, pinning every node on the fastest rung (the blind
	// fixed-rate strategy).
	adaptive bool
	nodes    map[byte]*nodeTransport
}

// NewLinkSim builds transports for the given nodes on top of eng.
func NewLinkSim(eng *Engine, nodes []byte, adaptive bool) *LinkSim {
	ls := &LinkSim{eng: eng, adaptive: adaptive, nodes: make(map[byte]*nodeTransport, len(nodes))}
	for _, addr := range nodes {
		ls.nodes[addr] = &nodeTransport{ls: ls, addr: addr, level: len(ladder) - 1}
	}
	return ls
}

// Transports returns every node transport keyed by address, ready for
// mac.NewNetwork or mac.NewSession.
func (ls *LinkSim) Transports() map[byte]mac.Transport {
	out := make(map[byte]mac.Transport, len(ls.nodes))
	for addr, n := range ls.nodes {
		out[addr] = n
	}
	return out
}

// nodeTransport is one node's view of the simulated link. It implements
// mac.Transport and mac.RateControl.
type nodeTransport struct {
	ls    *LinkSim
	addr  byte
	level int
	seq   byte
}

// syncThreshold is the per-bit SNR below which the reader cannot even
// detect the uplink preamble (failure reads as no-sync, not CRC).
const syncThreshold = 0.5

// Exchange simulates one interrogation cycle at the node's current
// operating point, advancing the engine clock by the cycle's airtime.
// Outcomes map onto the mac failure classes: an unheard query or
// undetectable reply yields no reply and zero SNR (no-sync); a detected
// but corrupted reply yields no reply with positive SNR (CRC fail).
func (n *nodeTransport) Exchange(q frame.Query) (mac.Exchange, error) {
	e := n.ls.eng
	op := ladder[n.level]
	t0 := e.Now()

	// Downlink: ~10 PWM units of preamble plus the query bits at an
	// average 1.5 units per PWM-encoded bit.
	dlDur := (10 + float64(frame.QueryBitLength)*1.5) * op.PWMUnitS
	// Uplink: 8 preamble bits plus the frame at the fixed backscatter
	// rate.
	ulBits := 8 + frame.DataFrameBitLength(op.PayloadBytes)
	ulDur := float64(ulBits) / uplinkBitrateBps
	cycle := dlDur + turnaroundS + ulDur
	// The reader listens out the full reply window whether or not a
	// reply comes, so the cycle cost is paid on every outcome.
	defer e.Advance(cycle)
	ulStart := t0 + dlDur + turnaroundS
	ulEnd := ulStart + ulDur
	ex := mac.Exchange{AirtimeSeconds: cycle}

	// An unpowered node never hears the query.
	if e.NodeOff(q.Dest, t0+dlDur/2) {
		return ex, nil
	}
	// Impulse bursts during the downlink can break the node's PWM
	// decode; a slower symbol unit than the fastest rung's buys
	// proportional immunity.
	pSurvive := 1.0
	for range e.BurstsIn(t0, t0+dlDur) {
		pKill := 0.3 * ladder[len(ladder)-1].PWMUnitS / op.PWMUnitS
		if pKill > 1 {
			pKill = 1
		}
		pSurvive *= 1 - pKill
	}
	if e.Rand().Float64() > pSurvive {
		return ex, nil // query lost: nothing backscattered
	}

	// Uplink per-bit SNR: nominal, attenuated by the fade gain (squared:
	// backscatter traverses the faded path) and the noise-floor step.
	gain := e.UplinkGain(ulStart)
	scale := e.NoiseScale(ulStart)
	snrBit := snr0 * gain * gain / (scale * scale)
	if _, clipping := e.ClipLevel(ulStart); clipping {
		snrBit *= 0.2 // saturation folds distortion into the band
	}
	if snrBit < syncThreshold {
		return ex, nil // preamble undetectable: no-sync
	}
	ex.SNRLinear = snrBit

	clean := true
	// Thermal/ambient bit errors over the whole frame.
	pb := 0.5 * math.Erfc(math.Sqrt(snrBit))
	if e.Rand().Float64() > math.Pow(1-pb, float64(ulBits)) {
		clean = false
	}
	// Each impulse burst overlapping the reply corrupts it with
	// probability ½ — shorter frames dodge bursts entirely.
	for range e.BurstsIn(ulStart, ulEnd) {
		if e.Rand().Float64() < 0.5 {
			clean = false
		}
	}
	// A brownout mid-reply truncates the frame.
	if e.BrownoutDuring(q.Dest, ulStart, ulEnd) {
		clean = false
	}
	// Clock drift slews bit timing across the frame; past a quarter bit
	// of accumulated slip the FM0 decode falls apart. Long frames slip
	// first.
	if slip := math.Abs(e.ClockDriftPPM(q.Dest)) * 1e-6 * float64(ulBits); slip > 0.25 {
		clean = false
	}
	// An active truncation window cuts the frame tail.
	if _, truncated := e.TruncationAt(ulStart); truncated {
		clean = false
	}
	if !clean {
		return ex, nil // preamble locked, CRC rejects the body
	}

	payload := make([]byte, op.PayloadBytes)
	for i := range payload {
		payload[i] = q.Dest + n.seq + byte(i)
	}
	ex.Reply = &frame.DataFrame{Source: q.Dest, Seq: n.seq, Payload: payload}
	n.seq++
	return ex, nil
}

// Downshift moves toward the robust end of the ladder (mac.RateControl).
func (n *nodeTransport) Downshift() bool {
	if !n.ls.adaptive || n.level == 0 {
		return false
	}
	n.level--
	return true
}

// Upshift moves toward the fast end of the ladder (mac.RateControl).
func (n *nodeTransport) Upshift() bool {
	if !n.ls.adaptive || n.level == len(ladder)-1 {
		return false
	}
	n.level++
	return true
}
