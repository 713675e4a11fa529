package fault

import (
	"fmt"
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

// DefaultLadder returns the standard operating points, index 0 = most
// robust, last = fastest.
func DefaultLadder() []OperatingPoint {
	return []OperatingPoint{
		{PayloadBytes: 4, PWMUnitS: 0.004},
		{PayloadBytes: 8, PWMUnitS: 0.003},
		{PayloadBytes: 16, PWMUnitS: 0.002},
		{PayloadBytes: 32, PWMUnitS: 0.0015},
		{PayloadBytes: 64, PWMUnitS: 0.001},
	}
}

// LinkSimConfig tunes the statistical link simulator.
type LinkSimConfig struct {
	// Ladder is the operating-point ladder (default DefaultLadder).
	Ladder []OperatingPoint
	// StartLevel is the initial rung for every node (default the
	// fastest, i.e. len(Ladder)-1).
	StartLevel int
	// UplinkBitrateBps is the fixed backscatter bitrate (default 500,
	// the sim's nominal piezo link rate).
	UplinkBitrateBps float64
	// SNR0 is the nominal per-bit uplink SNR (linear) with no faults
	// active (default 12 — essentially error-free).
	SNR0 float64
	// TurnaroundS is the downlink→uplink switch time (default 0.02).
	TurnaroundS float64
	// Adaptive enables the RateControl ladder; when false Downshift and
	// Upshift refuse, pinning every node at StartLevel (the blind
	// fixed-rate strategy).
	Adaptive bool
}

// DefaultLinkSimConfig returns the defaults above with the given
// adaptivity.
func DefaultLinkSimConfig(adaptive bool) LinkSimConfig {
	ladder := DefaultLadder()
	return LinkSimConfig{
		Ladder:           ladder,
		StartLevel:       len(ladder) - 1,
		UplinkBitrateBps: 500,
		SNR0:             12,
		TurnaroundS:      0.02,
		Adaptive:         adaptive,
	}
}

// LinkSim is a statistical per-exchange link simulator driven entirely
// by an Engine's fault timelines: it skips waveform synthesis and
// instead draws each exchange's outcome from the engine clock, the
// operating point and the faults active in the exchange's window. It is
// what makes whole-network chaos runs cheap enough to sweep.
type LinkSim struct {
	eng   *Engine
	cfg   LinkSimConfig
	nodes map[byte]*nodeTransport
}

// NewLinkSim builds transports for the given nodes on top of eng.
func NewLinkSim(eng *Engine, nodes []byte, cfg LinkSimConfig) (*LinkSim, error) {
	if eng == nil {
		return nil, fmt.Errorf("fault: nil engine")
	}
	if len(cfg.Ladder) == 0 {
		cfg.Ladder = DefaultLadder()
	}
	for i, op := range cfg.Ladder {
		if op.PayloadBytes <= 0 || op.PayloadBytes > frame.MaxPayload || op.PWMUnitS <= 0 {
			return nil, fmt.Errorf("fault: bad operating point %d: %+v", i, op)
		}
	}
	if cfg.StartLevel < 0 || cfg.StartLevel >= len(cfg.Ladder) {
		return nil, fmt.Errorf("fault: start level %d outside ladder [0, %d)", cfg.StartLevel, len(cfg.Ladder))
	}
	if cfg.UplinkBitrateBps <= 0 {
		cfg.UplinkBitrateBps = 500
	}
	if cfg.SNR0 <= 0 {
		cfg.SNR0 = 12
	}
	if cfg.TurnaroundS < 0 {
		cfg.TurnaroundS = 0.02
	}
	ls := &LinkSim{eng: eng, cfg: cfg, nodes: make(map[byte]*nodeTransport, len(nodes))}
	for _, addr := range nodes {
		ls.nodes[addr] = &nodeTransport{ls: ls, addr: addr, level: cfg.StartLevel}
	}
	return ls, nil
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

// fastestUnit returns the shortest PWM unit on the ladder (the
// reference for downlink burst vulnerability).
func (ls *LinkSim) fastestUnit() float64 {
	u := ls.cfg.Ladder[0].PWMUnitS
	for _, op := range ls.cfg.Ladder[1:] {
		if op.PWMUnitS < u {
			u = op.PWMUnitS
		}
	}
	return u
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
	op := n.ls.cfg.Ladder[n.level]
	t0 := e.Now()

	// Downlink: ~10 PWM units of preamble plus the query bits at an
	// average 1.5 units per PWM-encoded bit.
	dlDur := (10 + float64(frame.QueryBitLength)*1.5) * op.PWMUnitS
	// Uplink: 8 preamble bits plus the frame at the fixed backscatter
	// rate.
	ulBits := 8 + frame.DataFrameBitLength(op.PayloadBytes)
	ulDur := float64(ulBits) / n.ls.cfg.UplinkBitrateBps
	cycle := dlDur + n.ls.cfg.TurnaroundS + ulDur
	// The reader listens out the full reply window whether or not a
	// reply comes, so the cycle cost is paid on every outcome.
	defer e.Advance(cycle)
	ulStart := t0 + dlDur + n.ls.cfg.TurnaroundS
	ulEnd := ulStart + ulDur
	ex := mac.Exchange{AirtimeSeconds: cycle}

	// An unpowered node never hears the query.
	if e.NodeOff(q.Dest, t0+dlDur/2) {
		return ex, nil
	}
	// Impulse bursts during the downlink can break the node's PWM
	// decode; a slower symbol unit buys proportional immunity.
	pSurvive := 1.0
	for range e.BurstsIn(t0, t0+dlDur) {
		pKill := 0.3 * n.ls.fastestUnit() / op.PWMUnitS
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
	snrBit := n.ls.cfg.SNR0 * gain * gain / (scale * scale)
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
	if !n.ls.cfg.Adaptive || n.level == 0 {
		return false
	}
	n.level--
	return true
}

// Upshift moves toward the fast end of the ladder (mac.RateControl).
func (n *nodeTransport) Upshift() bool {
	if !n.ls.cfg.Adaptive || n.level == len(n.ls.cfg.Ladder)-1 {
		return false
	}
	n.level++
	return true
}
