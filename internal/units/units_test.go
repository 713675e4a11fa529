package units

import (
	"math"
	"testing"
)

func TestAmplitudeDBRoundTrip(t *testing.T) {
	cases := []float64{1e-9, 1e-3, 0.5, 1, 2, 10, 1e6}
	for _, r := range cases {
		got := DBToAmplitude(DB(20 * math.Log10(r)))
		if !ApproxEqual(got, r, 1e-12) {
			t.Errorf("round trip for %g = %g", r, got)
		}
	}
}

func TestKnownDBValues(t *testing.T) {
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"20dB is amplitude 10x", DBToAmplitude(20), 10},
		{"~6dB is amplitude 2x", DBToAmplitude(6.0205999133), 2},
		{"0dB is amplitude 1x", DBToAmplitude(0), 1},
		{"-20dB is amplitude 0.1x", DBToAmplitude(-20), 0.1},
	}
	for _, tc := range cases {
		if !ApproxEqual(tc.got, tc.want, 1e-9) {
			t.Errorf("%s: got %v want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestHydrophoneVoltage(t *testing.T) {
	// H2a hydrophone: -180 dB re 1V/µPa. A 1 Pa signal (=1e6 µPa) gives
	// 1e6 · 10^(-180/20) = 1e6 · 1e-9 = 1e-3 V.
	v := HydrophoneVoltage(1.0, -180)
	if !ApproxEqual(v, 1e-3, 1e-9) {
		t.Errorf("HydrophoneVoltage(1Pa, -180dB) = %g, want 1e-3", v)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1e12, 1e12+1, 1e-9) {
		t.Error("large values within relative tolerance should match")
	}
	if ApproxEqual(1, 2, 1e-9) {
		t.Error("1 and 2 should not be approximately equal")
	}
	if !ApproxEqual(0, 1e-15, 1e-12) {
		t.Error("tiny absolute difference should match")
	}
}
