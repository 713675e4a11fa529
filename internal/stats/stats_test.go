package stats

import (
	"math"
	"testing"
)

func TestMeanStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); m != 5 {
		t.Errorf("mean %g, want 5", m)
	}
	// Sample std dev with n−1: variance = 32/7.
	if s := StdDev(x); math.Abs(s-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("std %g", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs should be 0")
	}
}
