// Package channel simulates acoustic propagation inside rectangular water
// tanks using the image method (Allen–Berkley), plus ambient and white
// noise injection. It is the stand-in for the MIT Sea Grant pools the
// paper evaluated in: Pool A (3 m × 4 m × 1.3 m) and Pool B, the long
// 1.2 m × 10 m × 1 m corridor whose waveguide focusing explains the
// longer power-up range in Fig 9.
package channel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pab/internal/acoustics"
	"pab/internal/telemetry"
	"pab/internal/units"
)

// Vec3 is a position in tank coordinates (metres). x and y span the
// horizontal cross-section; z is height above the floor.
type Vec3 struct {
	X, Y, Z float64
}

// Sub returns a − b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Norm returns the Euclidean length.
func (a Vec3) Norm() float64 { return math.Sqrt(a.X*a.X + a.Y*a.Y + a.Z*a.Z) }

// Distance returns |a − b|.
func (a Vec3) Distance(b Vec3) float64 { return a.Sub(b).Norm() }

// Tank is a rectangular water tank with reflective boundaries.
type Tank struct {
	// Dimensions in metres: X × Y horizontal, Z depth.
	LX, LY, LZ float64
	// Reflection coefficients (pressure amplitude, signed). The water
	// surface is a pressure-release boundary (≈ −0.95); walls and floor
	// of a concrete/liner tank absorb part of each bounce.
	WallReflect    float64 // four side walls
	FloorReflect   float64 // z = 0
	SurfaceReflect float64 // z = LZ (negative: phase inversion)
	// Water carries temperature/salinity for sound speed and absorption.
	Water acoustics.Water
}

// PoolA returns the paper's Pool A: an enclosed 3 m × 4 m tank, 1.3 m
// deep (§5.1d).
func PoolA() Tank {
	return Tank{
		LX: 3, LY: 4, LZ: 1.3,
		WallReflect:    0.35,
		FloorReflect:   0.45,
		SurfaceReflect: -0.9,
		Water:          acoustics.FreshTank(),
	}
}

// PoolB returns the paper's Pool B: the elongated 1.2 m × 10 m corridor,
// 1 m deep, that "acts as a corridor, focusing the projector's signal
// directionally" (§6.2).
func PoolB() Tank {
	return Tank{
		LX: 1.2, LY: 10, LZ: 1,
		WallReflect:    0.55, // close glass/liner walls reflect strongly
		FloorReflect:   0.45,
		SurfaceReflect: -0.9,
		Water:          acoustics.FreshTank(),
	}
}

// SwimmingPool returns a 25 m × 12 m indoor swimming pool, 2 m deep —
// the third environment the paper validated in (§5.1d: "we also
// validated that the system operates correctly in an indoor swimming
// pool"). Tiled walls reflect more strongly than the Sea Grant tanks'.
func SwimmingPool() Tank {
	return Tank{
		LX: 12, LY: 25, LZ: 2,
		WallReflect:    0.5,
		FloorReflect:   0.5,
		SurfaceReflect: -0.9,
		Water:          acoustics.FreshTank(),
	}
}

// Validate checks tank plausibility.
func (t Tank) Validate() error {
	if t.LX <= 0 || t.LY <= 0 || t.LZ <= 0 {
		return fmt.Errorf("channel: tank dimensions must be positive: %gx%gx%g", t.LX, t.LY, t.LZ)
	}
	for _, r := range []float64{t.WallReflect, t.FloorReflect, t.SurfaceReflect} {
		if math.Abs(r) > 1 {
			return fmt.Errorf("channel: reflection coefficient %g outside [-1,1]", r)
		}
	}
	return nil
}

// Contains reports whether p lies inside the tank volume.
func (t Tank) Contains(p Vec3) bool {
	return p.X >= 0 && p.X <= t.LX && p.Y >= 0 && p.Y <= t.LY && p.Z >= 0 && p.Z <= t.LZ
}

// Tap is one propagation path of an impulse response.
type Tap struct {
	DelaySeconds float64
	// Gain is the signed pressure amplitude ratio relative to the source
	// amplitude referenced at 1 m.
	Gain float64
	// SurfaceBounces counts reflections off the (moving) water surface;
	// these taps wander when the surface does.
	SurfaceBounces int
}

// ImpulseResponse holds the multipath taps of a source→receiver link
// along with the sample rate they will be rendered at.
type ImpulseResponse struct {
	Taps       []Tap
	SampleRate float64
}

// Options tunes the image-method computation.
type Options struct {
	// MaxOrder is the maximum image index per axis (number of wall
	// bounces considered in each direction). 0 keeps only the direct
	// path; 3 captures the energetically relevant reverberation for the
	// tank sizes here.
	MaxOrder int
	// MinGain prunes taps weaker than this fraction of the direct-path
	// gain (default 0.01 when zero).
	MinGain float64
	// CarrierHz is the frequency used for absorption (narrowband links).
	CarrierHz float64
	// SrcDirectivity and DstDirectivity, when non-nil, weight each image
	// path by the endpoints' vertical beam patterns, evaluated at the
	// path's elevation angle (radians from horizontal). Transducers like
	// the paper's radial cylinder are horizontal-omni but roll off
	// vertically, which de-weights steep surface/floor bounces.
	SrcDirectivity func(elevationRad float64) float64
	DstDirectivity func(elevationRad float64) float64
}

// DefaultOptions returns image-method settings appropriate for PAB links.
func DefaultOptions(carrierHz float64) Options {
	return Options{MaxOrder: 3, MinGain: 0.01, CarrierHz: carrierHz}
}

// Response computes the impulse response from src to dst at sample rate
// fs using the image method.
func (t Tank) Response(src, dst Vec3, fs float64, opt Options) (*ImpulseResponse, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if !t.Contains(src) || !t.Contains(dst) {
		return nil, fmt.Errorf("channel: source %+v or receiver %+v outside tank", src, dst)
	}
	if fs <= 0 {
		return nil, fmt.Errorf("channel: sample rate must be positive, got %g", fs)
	}
	if opt.MaxOrder < 0 {
		return nil, fmt.Errorf("channel: negative image order %d", opt.MaxOrder)
	}
	minGain := opt.MinGain
	if minGain <= 0 {
		minGain = 0.01
	}

	c := t.Water.SoundSpeed()
	direct := math.Max(src.Distance(dst), 0.05)
	directGain := t.pathGain(direct, opt.CarrierHz)
	floor := math.Abs(directGain) * minGain

	// Typical surviving tap counts are small (the gain floor prunes most
	// images); growth beyond the estimate is amortised.
	taps := make([]Tap, 0, 64)
	images := 0
	n := opt.MaxOrder
	for nx := -n; nx <= n; nx++ {
		for ny := -n; ny <= n; ny++ {
			for nz := -n; nz <= n; nz++ {
				for u := 0; u < 2; u++ {
					for v := 0; v < 2; v++ {
						for w := 0; w < 2; w++ {
							// Allen–Berkley reflection counts: |nx−u| hits on
							// the x=0 wall, |nx| on the x=LX wall, etc. The
							// total bounce count defines the image order.
							bounces := math.Abs(float64(nx-u)) + math.Abs(float64(nx)) +
								math.Abs(float64(ny-v)) + math.Abs(float64(ny)) +
								math.Abs(float64(nz-w)) + math.Abs(float64(nz))
							if int(bounces) > opt.MaxOrder {
								continue
							}
							images++
							img := Vec3{
								X: float64(1-2*u)*src.X + 2*float64(nx)*t.LX,
								Y: float64(1-2*v)*src.Y + 2*float64(ny)*t.LY,
								Z: float64(1-2*w)*src.Z + 2*float64(nz)*t.LZ,
							}
							r := math.Max(img.Distance(dst), 0.05)
							refl := math.Pow(t.WallReflect, math.Abs(float64(nx-u))+math.Abs(float64(nx))) *
								math.Pow(t.WallReflect, math.Abs(float64(ny-v))+math.Abs(float64(ny))) *
								math.Pow(t.FloorReflect, math.Abs(float64(nz-w))) *
								math.Pow(t.SurfaceReflect, math.Abs(float64(nz)))
							g := refl * t.pathGain(r, opt.CarrierHz)
							if opt.SrcDirectivity != nil || opt.DstDirectivity != nil {
								elev := math.Asin(math.Abs(img.Z-dst.Z) / r)
								if opt.SrcDirectivity != nil {
									g *= opt.SrcDirectivity(elev)
								}
								if opt.DstDirectivity != nil {
									g *= opt.DstDirectivity(elev)
								}
							}
							if math.Abs(g) < floor {
								continue
							}
							taps = append(taps, Tap{
								DelaySeconds:   r / c,
								Gain:           g,
								SurfaceBounces: int(math.Abs(float64(nz))),
							})
						}
					}
				}
			}
		}
	}
	sort.Slice(taps, func(i, j int) bool { return taps[i].DelaySeconds < taps[j].DelaySeconds })
	ir := &ImpulseResponse{Taps: taps, SampleRate: fs}
	telemetry.Inc(telemetry.MChannelResponsesTotal)
	telemetry.ObserveN(telemetry.MChannelIrTaps, telemetry.DefCountBuckets, float64(len(taps)))
	telemetry.ObserveN(telemetry.MChannelIrImagesConsidered, telemetry.DefCountBuckets, float64(images))
	telemetry.Observe(telemetry.MChannelIrMaxDelaySeconds, ir.MaxDelay())
	return ir, nil
}

// pathGain returns the signed amplitude gain of a path of length r at
// carrier f: spherical spreading (1/r, referenced to 1 m) times
// absorption.
// Path lengths are floored at 0.05 m by callers so the 1/r reference
// stays finite for colocated pairs.
func (t Tank) pathGain(r, f float64) float64 {
	return 1 / r * units.DBToAmplitude(units.DB(-t.Water.AbsorptionDBPerKm(f)*r/1000))
}

// MaxDelay returns the largest tap delay in seconds (0 if empty).
func (ir *ImpulseResponse) MaxDelay() float64 {
	if len(ir.Taps) == 0 {
		return 0
	}
	return ir.Taps[len(ir.Taps)-1].DelaySeconds
}

// Gain returns the coherent channel gain at carrier frequency f: the
// complex sum of the taps' phasors. Its magnitude captures multipath
// fading, which varies with node placement — the location dependence seen
// across Fig 10's eight positions.
func (ir *ImpulseResponse) Gain(f float64) complex128 {
	var h complex128
	for _, tap := range ir.Taps {
		ph := -2 * math.Pi * f * tap.DelaySeconds
		h += complex(tap.Gain*math.Cos(ph), tap.Gain*math.Sin(ph))
	}
	return h
}

// Apply convolves x with the sparse tap set, using linear interpolation
// for fractional sample delays. The output has length len(x) plus the
// channel spread.
//
// Each output sums its terms in one fixed order, taps in order and,
// within a tap, the later-input g1 term before the g0 term: the order a
// tap-by-tap scatter over the input produces. It is computed output
// block by output block, so a block stays in L1 across the taps and no
// store waits on the load of the one before it.
func (ir *ImpulseResponse) Apply(x []float64) []float64 {
	if len(x) == 0 || len(ir.Taps) == 0 {
		return nil
	}
	spread := int(math.Ceil(ir.MaxDelay()*ir.SampleRate)) + 2
	out := make([]float64, len(x)+spread)
	for lo := 0; lo < len(out); lo += applyBlock {
		hi := min(lo+applyBlock, len(out))
		for _, tap := range ir.Taps {
			i0, g0, g1 := tap.split(ir.SampleRate)
			addTap(out, x, lo, hi, i0, g0, g1)
		}
	}
	return out
}

// applyBlock is how many outputs Apply sums across all taps at a time.
const applyBlock = 1024

// split returns the tap's delay as a whole sample count i0 and the
// gains of the two samples it interpolates between: g0 at i0, g1 at
// i0+1.
func (tap Tap) split(fs float64) (i0 int, g0, g1 float64) {
	d := tap.DelaySeconds * fs
	i0 = int(math.Floor(d))
	frac := d - float64(i0)
	return i0, tap.Gain * (1 - frac), tap.Gain * frac
}

// addTap adds one tap's terms to the outputs out[lo:hi]: to out[j],
// g1·x[j−i0−1] and then g0·x[j−i0], each where its input index lies in
// x.
func addTap(out, x []float64, lo, hi, i0 int, g0, g1 float64) {
	n := len(x)
	if lo <= i0 && i0 < hi {
		out[i0] += g0 * x[0]
	}
	if a, b := max(lo, i0+1), min(hi, i0+n); a < b {
		o := out[a:b]
		x1 := x[a-i0-1:][:len(o)]
		x0 := x[a-i0:][:len(o)]
		for k := range o {
			o[k] = o[k] + g1*x1[k] + g0*x0[k]
		}
	}
	if j := i0 + n; lo <= j && j < hi {
		out[j] += g1 * x[n-1]
	}
}

// SurfaceMotion describes sinusoidal surface waves for time-varying
// propagation: each surface-reflected path's length changes by roughly
// 2·amplitude per bounce as the reflection point rises and falls — the
// slow fading a real open-water deployment sees (paper §8: testing in
// "rivers, lakes, and oceans ... likely to introduce new challenges,
// such as mobility and multipath").
type SurfaceMotion struct {
	// AmplitudeM is the wave amplitude (half the crest-to-trough height).
	AmplitudeM float64
	// PeriodS is the wave period.
	PeriodS float64
	// PhaseRad offsets the wave phase.
	PhaseRad float64
}

// ApplyTimeVarying renders x through the channel like Apply, but
// surface-reflected taps ride the given surface motion: their delays are
// modulated by ±2·amplitude·bounces/c around the still-water value.
func (ir *ImpulseResponse) ApplyTimeVarying(x []float64, motion SurfaceMotion, soundSpeed float64) []float64 {
	if len(x) == 0 || len(ir.Taps) == 0 {
		return nil
	}
	if motion.AmplitudeM <= 0 || motion.PeriodS <= 0 || soundSpeed <= 0 || ir.SampleRate <= 0 {
		return ir.Apply(x)
	}
	maxExtra := 2 * motion.AmplitudeM * float64(maxSurfaceBounces(ir.Taps)) / soundSpeed
	spread := int(math.Ceil((ir.MaxDelay()+maxExtra)*ir.SampleRate)) + 2
	out := make([]float64, len(x)+spread)
	w := 2 * math.Pi / motion.PeriodS
	for _, tap := range ir.Taps {
		if tap.SurfaceBounces == 0 {
			// Static path: render directly.
			i0, g0, g1 := tap.split(ir.SampleRate)
			addTap(out, x, 0, len(out), i0, g0, g1)
			continue
		}
		wobble := 2 * motion.AmplitudeM * float64(tap.SurfaceBounces) / soundSpeed
		invFs := 1 / ir.SampleRate
		for i, v := range x {
			t := float64(i) * invFs
			d := (tap.DelaySeconds + wobble*math.Sin(w*t+motion.PhaseRad)) * ir.SampleRate
			i0 := int(math.Floor(d))
			frac := d - float64(i0)
			if i+i0+1 >= len(out) || i0 < 0 {
				continue
			}
			out[i+i0] += tap.Gain * (1 - frac) * v
			out[i+i0+1] += tap.Gain * frac * v
		}
	}
	return out
}

func maxSurfaceBounces(taps []Tap) int {
	m := 0
	for _, t := range taps {
		if t.SurfaceBounces > m {
			m = t.SurfaceBounces
		}
	}
	return m
}

// AddWhiteNoise adds zero-mean Gaussian noise of the given RMS (same
// units as x, i.e. pascal in the simulator) in place.
func AddWhiteNoise(x []float64, rms float64, rng *rand.Rand) {
	if rms <= 0 {
		return
	}
	for i := range x {
		x[i] += rng.NormFloat64() * rms
	}
}

// AmbientNoiseRMS returns the RMS pressure (Pa) of ambient noise within
// the receiver's processing band [f1Hz, f2Hz] for the given conditions.
func AmbientNoiseRMS(nc acoustics.NoiseConditions, f1Hz, f2Hz float64) (float64, error) {
	level, err := nc.BandNoiseLevel(f1Hz, f2Hz)
	if err != nil {
		return 0, err
	}
	return units.PressureFromSPL(level), nil
}

// NoiseForSNR returns the white-noise RMS that produces the requested SNR
// (dB) against a signal of RMS sRMS. Used by the BER–SNR sweep (Fig 7) to
// pin the operating point exactly.
func NoiseForSNR(sRMS float64, snr units.DB) float64 {
	return sRMS / units.DBToAmplitude(snr)
}
