package channel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pab/internal/dsp"
)

// refApply is the replaced Apply, verbatim: a tap-by-tap scatter over
// the input, whose per-output summation order Apply must reproduce.
func refApply(ir *ImpulseResponse, x []float64) []float64 {
	if len(x) == 0 || len(ir.Taps) == 0 {
		return nil
	}
	spread := int(math.Ceil(ir.MaxDelay()*ir.SampleRate)) + 2
	out := make([]float64, len(x)+spread)
	for _, tap := range ir.Taps {
		d := tap.DelaySeconds * ir.SampleRate
		i0 := int(math.Floor(d))
		frac := d - float64(i0)
		g0 := tap.Gain * (1 - frac)
		g1 := tap.Gain * frac
		for i, v := range x {
			out[i+i0] += g0 * v
			out[i+i0+1] += g1 * v
		}
	}
	return out
}

// firstBitMismatch returns the first index where got and want differ in
// any bit (math.Float64bits), or −1.
func firstBitMismatch(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestApplyMatchesReference compares Apply and ApplyInPlace bit for bit
// with the scatter they replaced. The responses are the link geometries
// of both pools, their first 1–9 taps (every remainder of the four-tap
// groups) and hand-made tap sets with zero, coincident, unsorted and
// whole-sample delays. The inputs run from one sample, shorter than
// any tap span, to several output blocks, on and around the block
// edges, in four shapes: noise with 8-sample runs of exact zeros of
// both signs, which no render skips; a keyed carrier behind a silent
// lead-in longer than every tap span, with 480-sample gaps of signed
// zeros like the PWM downlink's; 70-sample runs, more than a render
// keeps on its stack; and runs of zeros of random length.
// ApplyInPlace runs with exactly the room it needs, with more, and with
// none, where it must leave its input alone.
func TestApplyMatchesReference(t *testing.T) {
	const fs = 96000
	var irs []*ImpulseResponse
	opts := Options{MaxOrder: 2, MinGain: 0.02, CarrierHz: 15000}
	for _, g := range []struct {
		tank     Tank
		src, dst Vec3
	}{
		{PoolA(), Vec3{X: 0.5, Y: 0.5, Z: 0.65}, Vec3{X: 2.61, Y: 1.61, Z: 1.01}},
		{PoolA(), Vec3{X: 2.61, Y: 1.61, Z: 1.01}, Vec3{X: 0.7, Y: 0.6, Z: 0.65}},
		{PoolB(), Vec3{X: 0.5, Y: 0.5, Z: 0.65}, Vec3{X: 1.01, Y: 2.88, Z: 0.43}},
	} {
		ir, err := g.tank.Response(g.src, g.dst, fs, opts)
		if err != nil {
			t.Fatal(err)
		}
		irs = append(irs, ir)
	}
	irs = append(irs, &ImpulseResponse{SampleRate: fs, Taps: []Tap{
		{DelaySeconds: 0, Gain: 1},
		{DelaySeconds: 0, Gain: -0.5},
		{DelaySeconds: 3.0 / fs, Gain: 0.25},
		{DelaySeconds: 2.5 / fs, Gain: -0.125},
		{DelaySeconds: 2000.75 / fs, Gain: 0.3},
	}})
	rng := rand.New(rand.NewSource(20))
	for k := 1; k <= 9; k++ {
		irs = append(irs, &ImpulseResponse{SampleRate: fs, Taps: irs[2].Taps[:k]})
		taps := make([]Tap, k)
		for i := range taps {
			taps[i] = Tap{DelaySeconds: float64(rng.Intn(2400)) / 4 / fs, Gain: rng.NormFloat64()}
		}
		sort.Slice(taps, func(i, j int) bool { return taps[i].DelaySeconds < taps[j].DelaySeconds })
		irs = append(irs, &ImpulseResponse{SampleRate: fs, Taps: taps})
	}
	maxSpread := 0
	for _, ir := range irs {
		maxSpread = max(maxSpread, ir.Spread())
	}
	lengths := []int{1, 2, 3, 100, 1022, 1023, 1024, 1025, 2047, 2048, 2049, 5000, 9000}
	for k := 1; k <= 3; k++ {
		s := irs[0].Spread()
		lengths = append(lengths, k*applyBlock-s-1, k*applyBlock-s, k*applyBlock-s+1)
	}
	negZero := math.Copysign(0, -1)
	shapes := []struct {
		name string
		zero func(i int) (float64, bool)
	}{
		{"8-sample runs", func(i int) (float64, bool) {
			switch {
			case i%53 < 5:
				return 0, true
			case i%53 < 8:
				return negZero, true
			}
			return 0, false
		}},
		{"keyed", func(i int) (float64, bool) {
			if lead := maxSpread + 500; i < lead {
				return 0, true
			} else if (i-lead)/480%3 == 1 {
				return math.Copysign(0, math.Sin(float64(i))), true
			}
			return 0, false
		}},
		{"dense runs", func(i int) (float64, bool) {
			if i%80 < 70 {
				return math.Copysign(0, math.Sin(float64(i))), true
			}
			return 0, false
		}},
		{"random runs", nil},
	}
	for _, shape := range shapes {
		for _, n := range lengths {
			if n < 1 {
				continue
			}
			x := make([]float64, n)
			for i := 0; i < n; {
				if shape.zero != nil {
					if z, ok := shape.zero(i); ok {
						x[i] = z
					} else {
						x[i] = rng.NormFloat64()
					}
					i++
					continue
				}
				on, off := 1+rng.Intn(700), 1+rng.Intn(700)
				for end := min(n, i+on); i < end; i++ {
					x[i] = rng.NormFloat64()
				}
				for end := min(n, i+off); i < end; i++ {
					x[i] = math.Copysign(0, rng.NormFloat64())
				}
			}
			for j, ir := range irs {
				c := fmt.Sprintf("%s, response %d (%d taps), len %d", shape.name, j, len(ir.Taps), n)
				want := refApply(ir, x)
				checkBits(t, c+": Apply", ir.Apply(x), want)
				for _, room := range []int{ir.Spread(), ir.Spread() + 7} {
					buf := append(make([]float64, 0, n+room), x...)
					got := ir.ApplyInPlace(buf)
					checkBits(t, fmt.Sprintf("%s: ApplyInPlace with room %d", c, room), got, want)
					if &got[0] != &buf[0] {
						t.Fatalf("%s: ApplyInPlace with room %d allocated", c, room)
					}
				}
				in := append([]float64(nil), x...)[:n:n]
				checkBits(t, c+": ApplyInPlace without room", ir.ApplyInPlace(in), want)
				checkBits(t, c+": ApplyInPlace's input without room", in, x)
			}
		}
	}
}

// checkBits fails the test at the first sample where got and want
// differ in any bit.
func checkBits(t *testing.T, c string, got, want []float64) {
	t.Helper()
	if i := firstBitMismatch(got, want); i >= 0 {
		if len(got) != len(want) {
			t.Fatalf("%s: %d samples, reference %d", c, len(got), len(want))
		}
		t.Fatalf("%s: output %d is %v, reference %v", c, i, got[i], want[i])
	}
}

// TestZeroRunsMatchLinearScan requires the strided zero-run scan to find
// exactly the runs of at least minZeroRun exact zeros that a linear scan
// finds, in the caller's buffer when they fit and in a slice of their
// exact number when they do not.
func TestZeroRunsMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		x := make([]float64, rng.Intn(30000))
		for i := 0; i < len(x); {
			on, off := rng.Intn(3*minZeroRun), rng.Intn(3*minZeroRun)
			for end := min(len(x), i+on); i < end; i++ {
				x[i] = rng.NormFloat64()
			}
			for end := min(len(x), i+off); i < end; i++ {
				x[i] = math.Copysign(0, rng.NormFloat64())
			}
		}
		var want []zeroRun
		for i := 0; i < len(x); {
			j := i
			for j < len(x) && x[j] == 0 {
				j++
			}
			if j-i >= minZeroRun {
				want = append(want, zeroRun{i, j})
			}
			i = max(j, i+1)
		}
		var buf [stackRuns]zeroRun
		got := zeroRuns(x, buf[:])
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: found %d runs, a linear scan %d", trial, len(got), len(want))
		}
		switch {
		case len(want) == 0:
		case len(want) <= stackRuns && &got[0] != &buf[0]:
			t.Fatalf("trial %d: %d runs not in the caller's buffer", trial, len(got))
		case len(want) > stackRuns && cap(got) != len(want):
			t.Fatalf("trial %d: %d runs in a slice of capacity %d", trial, len(got), cap(got))
		}
	}
}

// TestCarryMatchesApply renders carriers modulated by random
// piecewise-constant envelopes through Apply, one rail at a time, and
// requires Carry's envelope times the carrier to give both rails to
// within 1e-10 of the input's peak times the response's total gain at
// every output (the two differ by the rounding of the carrier's phase
// arguments, ulp(ω·j) or 7e-12 rad at the longest input), and exactly 0 wherever no term of the response sees a
// nonzero input. The responses are the hand-made set of
// TestApplyMatchesReference (coincident, unsorted and whole-sample
// delays) and random sets; the envelopes hold steps shorter and longer
// than the responses' spread, of zero length, and runs of zeros.
func TestCarryMatchesApply(t *testing.T) {
	const fs = 96000
	rng := rand.New(rand.NewSource(21))
	irs := []*ImpulseResponse{{SampleRate: fs, Taps: []Tap{
		{DelaySeconds: 0, Gain: 1},
		{DelaySeconds: 0, Gain: -0.5},
		{DelaySeconds: 3.0 / fs, Gain: 0.25},
		{DelaySeconds: 2.5 / fs, Gain: -0.125},
		{DelaySeconds: 700.75 / fs, Gain: 0.3},
	}}}
	for _, k := range []int{1, 2, 7, 25} {
		taps := make([]Tap, k)
		for i := range taps {
			taps[i] = Tap{DelaySeconds: float64(rng.Intn(2400)) / 3 / fs, Gain: rng.NormFloat64()}
		}
		irs = append(irs, &ImpulseResponse{SampleRate: fs, Taps: taps})
	}
	for trial := range 40 {
		var env dsp.Steps
		at := rng.Intn(300)
		for range 1 + rng.Intn(30) {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			if rng.Intn(3) == 0 {
				v = 0
			}
			env = append(env, dsp.Step{At: at, V: v})
			at += []int{0, 1, 5, 40, 480, 1500}[rng.Intn(6)]
		}
		env = append(env, dsp.Step{At: at})
		n := env.End()
		osc := dsp.NewPhasor(15000+1000*rng.Float64(), fs)
		in := make([]complex128, n)
		osc.Modulate(in, 0, env)
		re, im := make([]float64, n), make([]float64, n)
		peak := 0.0
		for i, v := range in {
			re[i], im[i] = real(v), imag(v)
		}
		for _, s := range env {
			peak = max(peak, cmplxAbs(s.V))
		}
		for j, ir := range irs {
			if n == 0 {
				continue
			}
			gain := 0.0
			for _, tap := range ir.Taps {
				gain += math.Abs(tap.Gain)
			}
			wantRe, wantIm := ir.Apply(re), ir.Apply(im)
			got := make([]complex128, len(wantRe))
			osc.Modulate(got, 0, ir.Carry(env, osc.Omega()))
			for i, v := range got {
				d := math.Max(math.Abs(real(v)-wantRe[i]), math.Abs(imag(v)-wantIm[i]))
				if d > 1e-10*peak*gain {
					t.Fatalf("trial %d, response %d: output %d is %v, Apply gives %v", trial, j, i, v, complex(wantRe[i], wantIm[i]))
				}
				if silent := carrySilent(ir, env, i); silent != (v == 0) {
					t.Fatalf("trial %d, response %d: output %d is %v, silent %v", trial, j, i, v, silent)
				}
			}
		}
	}
}

// carrySilent reports whether every interpolation term of ir with a
// nonzero gain reads a zero of env at output j.
func carrySilent(ir *ImpulseResponse, env dsp.Steps, j int) bool {
	at := func(i int) complex128 {
		var v complex128
		for _, s := range env {
			if s.At <= i {
				v = s.V
			}
		}
		return v
	}
	for _, tap := range ir.Taps {
		i0, g0, g1 := tap.split(ir.SampleRate)
		if (g0 != 0 && at(j-i0) != 0) || (g1 != 0 && at(j-i0-1) != 0) {
			return false
		}
	}
	return true
}

func cmplxAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }
