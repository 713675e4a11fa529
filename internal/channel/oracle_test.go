package channel

import (
	"math"
	"math/rand"
	"testing"
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

// TestApplyMatchesReference compares Apply bit for bit with the
// scatter it replaced: on the link geometries of both pools and on
// hand-made tap sets with zero, coincident and whole-sample delays, at
// input lengths on and around the output block edges, on noise with
// runs of exact zeros of both signs.
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
	lengths := []int{1, 2, 3, 1022, 1023, 1024, 1025, 2047, 2048, 2049, 5000}
	for k := 1; k <= 3; k++ {
		lengths = append(lengths, k*applyBlock-spreadOf(irs[0])-1, k*applyBlock-spreadOf(irs[0]), k*applyBlock-spreadOf(irs[0])+1)
	}
	for _, n := range lengths {
		if n < 1 {
			continue
		}
		x := make([]float64, n)
		for i := range x {
			switch {
			case i%53 < 5:
				// +0
			case i%53 < 8:
				x[i] = math.Copysign(0, -1)
			default:
				x[i] = rng.NormFloat64()
			}
		}
		for j, ir := range irs {
			got, want := ir.Apply(x), refApply(ir, x)
			if i := firstBitMismatch(got, want); i >= 0 {
				t.Fatalf("response %d, len %d: output %d is %v, reference %v", j, n, i, got[i], want[i])
			}
			// With no surface bounces every tap is static, and
			// ApplyTimeVarying renders through the same per-tap sums.
			static := &ImpulseResponse{SampleRate: ir.SampleRate, Taps: append([]Tap(nil), ir.Taps...)}
			for i := range static.Taps {
				static.Taps[i].SurfaceBounces = 0
			}
			still := static.ApplyTimeVarying(x, SurfaceMotion{AmplitudeM: 0.01, PeriodS: 1}, 1480)
			if i := firstBitMismatch(still, want); i >= 0 {
				t.Fatalf("response %d, len %d: time-varying output %d is %v, reference %v", j, n, i, still[i], want[i])
			}
		}
	}
}

func spreadOf(ir *ImpulseResponse) int {
	return int(math.Ceil(ir.MaxDelay()*ir.SampleRate)) + 2
}
