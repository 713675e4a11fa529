// Package fault is a deterministic, seedable fault-injection engine for
// the PAB reproduction: the chaos layer the paper's §8 deployment
// challenges call for. Real underwater channels are dominated by
// impulsive (snapping-shrimp-like) noise, fading and battery-free nodes
// that lose power mid-protocol; this package turns those into
// composable, scriptable injectors — impulsive noise bursts, wideband
// noise-floor steps, channel dropouts and attenuation fades, node
// supercap brownouts mid-frame, node clock drift, hydrophone
// saturation/clipping, and frame truncation — so failures become
// reproducible instead of anecdotal.
//
// Determinism is the design center: every injector precomputes its
// entire timeline from the seed at engine construction, so all query
// hooks are pure functions of (time, node address). Two engines built
// from the same profile, seed and node set expose bit-identical fault
// timelines regardless of how or in what order the system under test
// queries them — which is what makes an adaptive and a blind MAC
// strategy comparable "on the same seed".
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"pab/internal/telemetry"
)

// Burst is one impulsive-noise event (a snapping-shrimp click train or
// similar broadband transient).
type Burst struct {
	// StartS / DurS bound the burst on the engine clock, seconds.
	StartS, DurS float64
	// AmpPa is the burst pressure amplitude at the hydrophone.
	AmpPa float64
}

// End returns the burst end time.
func (b Burst) End() float64 { return b.StartS + b.DurS }

// window is a half-open activity interval with a payload value.
type window struct {
	start, end float64
	value      float64
}

// Class names for telemetry and reporting.
const (
	ClassImpulse    = "impulse"
	ClassNoiseFloor = "noise_floor"
	ClassFade       = "fade"
	ClassBrownout   = "brownout"
	ClassDrift      = "clock_drift"
	ClassClipping   = "clipping"
	ClassTruncation = "truncation"
	ClassNodeDeath  = "node_death"
)

// classes lists every fault class in reporting order.
var classes = []string{
	ClassImpulse, ClassNoiseFloor, ClassFade, ClassBrownout,
	ClassDrift, ClassClipping, ClassTruncation, ClassNodeDeath,
}

// Engine owns the fault timelines and the simulation clock. It
// implements the mac.Clock contract (Now/Sleep) so a Session backing
// off genuinely waits out a noise episode in simulated time.
type Engine struct {
	now float64

	bursts     []Burst           // sorted by StartS
	noiseSteps []window          // noise-floor scale ≥ 1
	fades      []window          // uplink gain ≤ 1
	clips      []window          // clipping level (Pa)
	truncs     []window          // value = fraction of the frame kept
	brownouts  map[byte][]window // per-node off windows
	driftPPM   map[byte]float64  // per-node constant clock offset
	deadFrom   map[byte]float64  // per-node permanent death time

	rng    *rand.Rand // exchange-level draws for the link simulator
	counts map[string]int64
}

// NewEngine builds the fault timelines for the given profile, seed,
// horizon (seconds of simulated time the schedules must cover) and node
// population. The same (profile, seed, horizon, nodes) always yields
// identical timelines.
func NewEngine(p Profile, seed int64, horizonS float64, nodes []byte) (*Engine, error) {
	if horizonS <= 0 {
		return nil, fmt.Errorf("fault: horizon must be positive, got %g", horizonS)
	}
	e := &Engine{
		brownouts: make(map[byte][]window),
		driftPPM:  make(map[byte]float64),
		deadFrom:  make(map[byte]float64),
		rng:       rand.New(rand.NewSource(seed ^ 0x5eed1e55)),
		counts:    make(map[string]int64),
	}
	// Each injector draws from its own sub-stream so adding or removing
	// one injector never perturbs the others' schedules.
	sub := func(tag int64) *rand.Rand {
		return rand.New(rand.NewSource(seed*1000003 + tag))
	}
	if p.Impulse != nil {
		e.bursts = p.Impulse.schedule(sub(1), horizonS)
	}
	if p.NoiseFloor != nil {
		e.noiseSteps = p.NoiseFloor.schedule(sub(2), horizonS)
	}
	if p.Fading != nil {
		e.fades = p.Fading.schedule(sub(3), horizonS)
	}
	if p.Clipping != nil {
		e.clips = p.Clipping.schedule(sub(4), horizonS)
	}
	if p.Truncation != nil {
		e.truncs = p.Truncation.schedule(sub(5), horizonS)
	}
	// Per-node schedules use a per-address sub-stream: node sets can
	// grow without reshuffling existing nodes' fates.
	for _, addr := range nodes {
		if p.Brownout != nil {
			e.brownouts[addr] = p.Brownout.schedule(sub(100+int64(addr)), horizonS)
		}
		if p.Drift != nil {
			e.driftPPM[addr] = p.Drift.draw(sub(200 + int64(addr)))
		}
	}
	// Node death: the first DeadNodes addresses (sorted) die at a
	// profile-scheduled time.
	if p.DeadNodes > 0 && len(nodes) > 0 {
		sorted := append([]byte(nil), nodes...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		r := sub(6)
		n := p.DeadNodes
		if n > len(sorted) {
			n = len(sorted)
		}
		for i := 0; i < n; i++ {
			// Die somewhere in the first third of the run so the network
			// must live with the loss for most of it.
			e.deadFrom[sorted[i]] = (0.05 + 0.3*r.Float64()) * horizonS
		}
	}
	return e, nil
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Sleep advances simulated time (mac.Clock contract).
func (e *Engine) Sleep(seconds float64) { e.Advance(seconds) }

// Advance moves the simulated clock forward; negative deltas are
// ignored (time is monotonic).
func (e *Engine) Advance(seconds float64) {
	if seconds > 0 {
		e.now += seconds
	}
}

// Rand returns the engine's exchange-level random stream, used by the
// link simulator for per-exchange outcome draws. It is separate from
// the schedule streams, so consuming it never perturbs fault timelines.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// ---------------------------------------------------------------------------
// Query hooks — pure functions of (time, address)
// ---------------------------------------------------------------------------

// valueAt returns the value of the window covering t (ok=false when
// none does). Windows are sorted and non-overlapping.
func valueAt(ws []window, t float64) (float64, bool) {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].end > t })
	if i < len(ws) && ws[i].start <= t {
		return ws[i].value, true
	}
	return 0, false
}

// overlaps reports whether any window intersects [t0, t1).
func overlaps(ws []window, t0, t1 float64) bool {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].end > t0 })
	return i < len(ws) && ws[i].start < t1
}

// NoiseScale returns the wideband noise-floor multiplier at time t
// (1 = nominal).
func (e *Engine) NoiseScale(t float64) float64 {
	if v, ok := valueAt(e.noiseSteps, t); ok {
		e.note(ClassNoiseFloor)
		return v
	}
	return 1
}

// UplinkGain returns the channel attenuation multiplier at time t
// (1 = nominal, 0 = complete dropout).
func (e *Engine) UplinkGain(t float64) float64 {
	if v, ok := valueAt(e.fades, t); ok {
		e.note(ClassFade)
		return v
	}
	return 1
}

// ClipLevel returns the hydrophone saturation level (Pa) at time t;
// ok=false means no clipping is active.
func (e *Engine) ClipLevel(t float64) (float64, bool) {
	if v, ok := valueAt(e.clips, t); ok {
		e.note(ClassClipping)
		return v, true
	}
	return 0, false
}

// BurstsIn returns the impulse bursts intersecting [t0, t1), clipped to
// nothing (the slice aliases the schedule; do not mutate).
func (e *Engine) BurstsIn(t0, t1 float64) []Burst {
	lo := sort.Search(len(e.bursts), func(i int) bool { return e.bursts[i].End() > t0 })
	hi := lo
	for hi < len(e.bursts) && e.bursts[hi].StartS < t1 {
		hi++
	}
	if hi > lo {
		e.note(ClassImpulse)
	}
	return e.bursts[lo:hi]
}

// NodeOff reports whether the node is unpowered at time t: permanently
// dead, or inside a brownout window.
func (e *Engine) NodeOff(addr byte, t float64) bool {
	if d, ok := e.deadFrom[addr]; ok && t >= d {
		e.note(ClassNodeDeath)
		return true
	}
	if _, ok := valueAt(e.brownouts[addr], t); ok {
		e.note(ClassBrownout)
		return true
	}
	return false
}

// BrownoutDuring reports whether the node loses power anywhere in
// [t0, t1) — the mid-frame brownout case that truncates an uplink.
func (e *Engine) BrownoutDuring(addr byte, t0, t1 float64) bool {
	if d, ok := e.deadFrom[addr]; ok && d < t1 {
		e.note(ClassNodeDeath)
		return true
	}
	if overlaps(e.brownouts[addr], t0, t1) {
		e.note(ClassBrownout)
		return true
	}
	return false
}

// ClockDriftPPM returns the node's constant clock offset in parts per
// million (0 when the drift injector is off).
func (e *Engine) ClockDriftPPM(addr byte) float64 {
	ppm := e.driftPPM[addr]
	if ppm != 0 {
		e.note(ClassDrift)
	}
	return ppm
}

// TruncationAt returns the fraction of a frame kept when a truncation
// window covers t (ok=false when none does).
func (e *Engine) TruncationAt(t float64) (float64, bool) {
	if v, ok := valueAt(e.truncs, t); ok {
		e.note(ClassTruncation)
		return v, true
	}
	return 0, false
}

// classMetrics maps every fault class to its registered injection
// counter, so note never has to compute a metric name at runtime.
var classMetrics = map[string]telemetry.Name{
	ClassImpulse:    telemetry.MFaultImpulseInjected,
	ClassNoiseFloor: telemetry.MFaultNoiseFloorInjected,
	ClassFade:       telemetry.MFaultFadeInjected,
	ClassBrownout:   telemetry.MFaultBrownoutInjected,
	ClassDrift:      telemetry.MFaultClockDriftInjected,
	ClassClipping:   telemetry.MFaultClippingInjected,
	ClassTruncation: telemetry.MFaultTruncationInjected,
	ClassNodeDeath:  telemetry.MFaultNodeDeathInjected,
}

// note counts a hook firing, both internally (deterministic report) and
// in the process telemetry so injected faults are distinguishable from
// organic failures.
func (e *Engine) note(class string) {
	e.counts[class]++
	telemetry.Inc(classMetrics[class])
}

// ClassCount is one fault class's injection count.
type ClassCount struct {
	Class string `json:"class"`
	Count int64  `json:"count"`
}

// Counts returns the per-class hook-firing counts in fixed class order
// (deterministic across runs).
func (e *Engine) Counts() []ClassCount {
	out := make([]ClassCount, 0, len(classes))
	for _, c := range classes {
		out = append(out, ClassCount{Class: c, Count: e.counts[c]})
	}
	return out
}
