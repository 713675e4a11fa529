// Package channel simulates acoustic propagation inside rectangular water
// tanks using the image method (Allen–Berkley), plus white noise
// injection. It is the stand-in for the MIT Sea Grant pools the
// paper evaluated in: Pool A (3 m × 4 m × 1.3 m) and Pool B, the long
// 1.2 m × 10 m × 1 m corridor whose waveguide focusing explains the
// longer power-up range in Fig 9.
package channel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"pab/internal/acoustics"
	"pab/internal/dsp"
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
							if math.Abs(g) < floor {
								continue
							}
							taps = append(taps, Tap{DelaySeconds: r / c, Gain: g})
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

// Spread returns how many samples a render's output runs past its
// input: the last tap's delay rounded up to whole samples, plus the two
// samples its interpolation and rounding can reach.
func (ir *ImpulseResponse) Spread() int {
	return int(math.Ceil(ir.MaxDelay()*ir.SampleRate)) + 2
}

// Apply convolves x with the sparse tap set, using linear interpolation
// for fractional sample delays. The output is a new slice of length
// len(x) plus the channel spread (Spread).
//
// Each output sums its terms in one fixed order, taps in order and,
// within a tap, the later-input g1 term before the g0 term: the order a
// tap-by-tap scatter over the input produces. It is computed output
// block by output block, four taps per pass over a block (render).
func (ir *ImpulseResponse) Apply(x []float64) []float64 {
	if len(x) == 0 || len(ir.Taps) == 0 {
		return nil
	}
	out := make([]float64, len(x)+ir.Spread())
	var runs [stackRuns]zeroRun
	zeros := zeroRuns(x, runs[:])
	for lo := 0; lo < len(out); lo += applyBlock {
		ir.render(out[lo:min(lo+applyBlock, len(out))], x, lo, zeros)
	}
	return out
}

// ApplyInPlace is Apply written over its input: when x has capacity for
// Spread() more samples, it returns x[:len(x)+Spread()] holding the
// output, bit for bit Apply's, and allocates nothing; otherwise it
// returns Apply(x) and leaves x as it was. The blocks run from last to
// first through a block on the stack, so each block's inputs, which
// precede or share its outputs, are read before they are overwritten.
func (ir *ImpulseResponse) ApplyInPlace(x []float64) []float64 {
	n := len(x)
	if n == 0 || len(ir.Taps) == 0 {
		return nil
	}
	m := n + ir.Spread()
	if cap(x) < m {
		return ir.Apply(x)
	}
	var runs [stackRuns]zeroRun
	zeros := zeroRuns(x, runs[:])
	out := x[:m]
	var buf [applyBlock]float64
	for lo := (m - 1) / applyBlock * applyBlock; lo >= 0; lo -= applyBlock {
		blk := buf[:min(applyBlock, m-lo)]
		clear(blk)
		ir.render(blk, x, lo, zeros)
		copy(out[lo:], blk)
	}
	return out
}

// Carry returns the envelope the response gives a carrier of w radians
// per sample modulated by env: where the input is env(i)·e^{jwi}, Apply's
// output, taken over complex samples, is Carry(env, w)(j)·e^{jwj}, and
// so, for a real input Im(env(i)·e^{jwi}), Apply's output is
// Im(Carry(env, w)(j)·e^{jwj}) up to rounding. Each tap adds two terms,
// g0·e^{−jw·i0}·env(j−i0) and g1·e^{−jw(i0+1)}·env(j−i0−1), so the output
// envelope changes only where a step of env meets a term's delay: the
// work is O(steps·taps), not O(samples·taps). The value at each change
// is summed afresh, one difference of prefix sums of the terms'
// coefficients per step of env the terms see, not carried over from the
// last change, so no rounding builds up along a recording and the
// envelope is exactly 0 wherever every term sees a zero of env.
func (ir *ImpulseResponse) Carry(env dsp.Steps, w float64) dsp.Steps {
	if len(env) == 0 || len(ir.Taps) == 0 {
		return nil
	}
	// The terms in order of delay, one per distinct delay, and the
	// prefix sums of their coefficients.
	terms := make([]carryTerm, 0, 2*len(ir.Taps))
	for _, tap := range ir.Taps {
		i0, g0, g1 := tap.split(ir.SampleRate)
		terms = append(terms, carryTerm{i0, g0}, carryTerm{i0 + 1, g1})
	}
	slices.SortStableFunc(terms, func(a, b carryTerm) int { return a.d - b.d })
	delays := make([]int, 0, len(terms))
	prefix := make([]complex128, 1, len(terms)+1)
	for k, t := range terms {
		if k > 0 && t.d == terms[k-1].d {
			prefix[len(prefix)-1] += phase(w, t.d, t.g)
			continue
		}
		delays = append(delays, t.d)
		prefix = append(prefix, prefix[len(prefix)-1]+phase(w, t.d, t.g))
	}
	// At output j, seen[s] counts the terms that have reached step s
	// of env, those whose delay d has env[s].At+d ≤ j: the terms of the
	// least delays, which read env at or past the step. Step s's value
	// thus reaches terms seen[s+1] … seen[s]−1, and seen[len(env)] = 0.
	nd := len(delays)
	seen := make([]int, len(env)+1)
	out := make(dsp.Steps, 0, len(env)*nd)
	done := 0 // the leading steps every term has reached
	for {
		j := math.MaxInt
		for s := done; s < len(env) && env[s].At+delays[0] <= j; s++ {
			if seen[s] < nd {
				j = min(j, env[s].At+delays[seen[s]])
			}
		}
		if j == math.MaxInt {
			break
		}
		for s := done; s < len(env) && env[s].At+delays[0] <= j; s++ {
			for seen[s] < nd && env[s].At+delays[seen[s]] <= j {
				seen[s]++
			}
		}
		for done < len(env) && seen[done] == nd {
			done++
		}
		var e complex128
		for s := max(done-1, 0); s < len(env) && seen[s] > 0; s++ {
			if v := env[s].V; v != 0 && seen[s] > seen[s+1] {
				e += v * (prefix[seen[s]] - prefix[seen[s+1]])
			}
		}
		out = append(out, dsp.Step{At: j, V: e})
	}
	return out
}

// carryTerm is one interpolation term of a tap: gain g at delay d.
type carryTerm struct {
	d int
	g float64
}

// phase returns g·e^{−jwd}.
func phase(w float64, d int, g float64) complex128 {
	s, c := math.Sincos(w * float64(d))
	return complex(g*c, -g*s)
}

// applyBlock is how many outputs a render sums across all taps at a
// time.
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

// render adds to out, which holds the outputs lo, lo+1, … and is +0 on
// entry, every tap's terms of x, one group of four consecutive taps per
// pass (the last group may hold fewer). Inputs outside x count as
// zeros, and a group skips the outputs whose inputs all lie in one of
// x's zero runs. Neither changes a bit: an output's sum starts at +0,
// and a sum that starts at +0 never becomes −0 under round-to-nearest,
// so adding a term g·(±0), itself ±0 for a finite gain g, leaves it as
// it was.
func (ir *ImpulseResponse) render(out, x []float64, lo int, zeros []zeroRun) {
	n, hi := len(x), lo+len(out)
	for t := 0; t < len(ir.Taps); t += 4 {
		var g tapGroup
		g.split(ir.Taps[t:min(t+4, len(ir.Taps))], ir.SampleRate)
		first, last := g.first, g.last
		// Output j reads x[j−last−1] … x[j−first], so the group reaches
		// the outputs first … last+n, and a zero run [zlo, zhi) silences
		// it on [zlo+last+1, zhi+first).
		a, b := max(lo, first), min(hi, last+n+1)
		k0 := sort.Search(len(zeros), func(k int) bool { return zeros[k].hi+first > a })
		for k := k0; k < len(zeros) && a < b; k++ {
			sa, sb := max(a, zeros[k].lo+last+1), min(b, zeros[k].hi+first)
			if sa >= b {
				break
			}
			if sa < sb {
				g.add(out, x, lo, a, sa)
				a = sb
			}
		}
		g.add(out, x, lo, a, b)
	}
}

// tapGroup is up to four consecutive taps, split at the render's sample
// rate, with the least and greatest of their whole-sample delays.
type tapGroup struct {
	m           int
	i0          [4]int
	g0, g1      [4]float64
	first, last int
}

func (g *tapGroup) split(taps []Tap, fs float64) {
	g.m = len(taps)
	for k, tap := range taps {
		g.i0[k], g.g0[k], g.g1[k] = tap.split(fs)
	}
	g.first, g.last = g.i0[0], g.i0[0]
	for _, i0 := range g.i0[1:g.m] {
		g.first, g.last = min(g.first, i0), max(g.last, i0)
	}
}

// add adds the group's terms to the outputs a … b−1, held in out from
// output lo on. Where every input lies in x, the group adds all its
// terms to each output in one pass, in the order a tap-by-tap scatter
// would; near x's ends each term checks its input index.
func (g *tapGroup) add(out, x []float64, lo, a, b int) {
	if a >= b {
		return
	}
	ia := min(max(a, g.last+1), b)
	ib := max(min(b, g.first+len(x)), ia)
	g.addEdge(out, x, lo, a, ia)
	g.addEdge(out, x, lo, ib, b)
	if ia == ib {
		return
	}
	o := out[ia-lo : ib-lo]
	a1, a0 := g.g1[0], g.g0[0]
	xa1, xa0 := x[ia-g.i0[0]-1:][:len(o)], x[ia-g.i0[0]:][:len(o)]
	if g.m == 1 {
		for k := range o {
			o[k] = o[k] + a1*xa1[k] + a0*xa0[k]
		}
		return
	}
	b1, b0 := g.g1[1], g.g0[1]
	xb1, xb0 := x[ia-g.i0[1]-1:][:len(o)], x[ia-g.i0[1]:][:len(o)]
	if g.m == 2 {
		for k := range o {
			o[k] = o[k] + a1*xa1[k] + a0*xa0[k] + b1*xb1[k] + b0*xb0[k]
		}
		return
	}
	c1, c0 := g.g1[2], g.g0[2]
	xc1, xc0 := x[ia-g.i0[2]-1:][:len(o)], x[ia-g.i0[2]:][:len(o)]
	if g.m == 3 {
		for k := range o {
			o[k] = o[k] + a1*xa1[k] + a0*xa0[k] + b1*xb1[k] + b0*xb0[k] +
				c1*xc1[k] + c0*xc0[k]
		}
		return
	}
	d1, d0 := g.g1[3], g.g0[3]
	xd1, xd0 := x[ia-g.i0[3]-1:][:len(o)], x[ia-g.i0[3]:][:len(o)]
	for k := range o {
		o[k] = o[k] + a1*xa1[k] + a0*xa0[k] + b1*xb1[k] + b0*xb0[k] +
			c1*xc1[k] + c0*xc0[k] + d1*xd1[k] + d0*xd0[k]
	}
}

// addEdge adds the group's terms to the outputs a … b−1 one term at a
// time, skipping each term whose input index lies outside x.
func (g *tapGroup) addEdge(out, x []float64, lo, a, b int) {
	for j := a; j < b; j++ {
		s := out[j-lo]
		for t := range g.m {
			if i := j - g.i0[t] - 1; 0 <= i && i < len(x) {
				s = s + g.g1[t]*x[i]
			}
			if i := j - g.i0[t]; 0 <= i && i < len(x) {
				s = s + g.g0[t]*x[i]
			}
		}
		out[j-lo] = s
	}
}

// zeroRun is a run x[lo:hi] of exact zeros of either sign.
type zeroRun struct{ lo, hi int }

// minZeroRun is the shortest zero run a render looks for: a run must
// outlast a group's delay span to silence any output, and a shorter one
// saves less than its bookkeeping costs.
const minZeroRun = 64

// stackRuns is how many zero runs a render keeps on its stack; the
// reflection an exchange renders has one, before the carrier reaches
// the node.
const stackRuns = 64

// zeroRuns returns x's zero runs of at least minZeroRun samples in
// order: in buf when they fit, else in a slice of exactly their number.
func zeroRuns(x []float64, buf []zeroRun) []zeroRun {
	k := scanZeroRuns(x, buf)
	if k <= len(buf) {
		return buf[:k]
	}
	runs := make([]zeroRun, k)
	scanZeroRuns(x, runs)
	return runs
}

// scanZeroRuns counts x's zero runs of at least minZeroRun samples and
// stores the first len(runs) of them in runs. Every such run covers a
// multiple of minZeroRun/2, so only those samples are probed, and the
// scan walks out from each zero it finds to the ends of its run.
func scanZeroRuns(x []float64, runs []zeroRun) int {
	const step = minZeroRun / 2
	k, done := 0, 0
	for p := step - 1; p < len(x); p += step {
		if p < done || x[p] != 0 {
			continue
		}
		i, j := p, p+1
		for i > done && x[i-1] == 0 {
			i--
		}
		for j < len(x) && x[j] == 0 {
			j++
		}
		if j-i >= minZeroRun {
			if k < len(runs) {
				runs[k] = zeroRun{i, j}
			}
			k++
		}
		done = j
	}
	return k
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
