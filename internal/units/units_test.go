package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPowerDBRoundTrip(t *testing.T) {
	cases := []float64{1e-9, 1e-3, 0.5, 1, 2, 10, 1e6}
	for _, r := range cases {
		got := DBToPower(PowerToDB(r))
		if !ApproxEqual(got, r, 1e-12) {
			t.Errorf("DBToPower(PowerToDB(%g)) = %g", r, got)
		}
	}
}

func TestAmplitudeDBRoundTrip(t *testing.T) {
	cases := []float64{1e-9, 1e-3, 0.5, 1, 2, 10, 1e6}
	for _, r := range cases {
		got := DBToAmplitude(AmplitudeToDB(r))
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
		{"power 2x is ~3dB", float64(PowerToDB(2)), 3.0102999566},
		{"power 10x is 10dB", float64(PowerToDB(10)), 10},
		{"amplitude 10x is 20dB", float64(AmplitudeToDB(10)), 20},
		{"amplitude 2x is ~6dB", float64(AmplitudeToDB(2)), 6.0205999133},
	}
	for _, tc := range cases {
		if !ApproxEqual(tc.got, tc.want, 1e-9) {
			t.Errorf("%s: got %v want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestNonPositiveDBIsNegInf(t *testing.T) {
	if !math.IsInf(float64(PowerToDB(0)), -1) {
		t.Error("PowerToDB(0) should be -Inf")
	}
	if !math.IsInf(float64(AmplitudeToDB(-1)), -1) {
		t.Error("AmplitudeToDB(-1) should be -Inf")
	}
}

func TestSPLReference(t *testing.T) {
	// 1 µPa RMS is 0 dB re 1 µPa by definition.
	if spl := SPL(MicroPascal); !ApproxEqual(float64(spl), 0, 1e-12) {
		t.Errorf("SPL(1µPa) = %v, want 0", spl)
	}
	// 1 Pa RMS is 120 dB re 1 µPa.
	if spl := SPL(1); !ApproxEqual(float64(spl), 120, 1e-9) {
		t.Errorf("SPL(1Pa) = %v, want 120", spl)
	}
}

func TestSPLRoundTrip(t *testing.T) {
	f := func(exp uint8) bool {
		// Pressures from 1 µPa to ~1 kPa.
		p := MicroPascal * math.Pow(10, float64(exp%10))
		return ApproxEqual(PressureFromSPL(SPL(p)), p, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
