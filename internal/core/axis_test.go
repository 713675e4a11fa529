package core

import (
	"math"
	"math/rand"
	"testing"
)

func axisSignal(n int) []complex128 {
	rng := rand.New(rand.NewSource(9))
	bb := make([]complex128, n)
	for i := range bb {
		// Carrier mean + modulation along a tilted axis + noise.
		mod := 0.0
		if (i/50)%2 == 0 {
			mod = 1
		}
		bb[i] = complex(3+mod*0.4+0.01*rng.NormFloat64(), 1+mod*0.3+0.01*rng.NormFloat64())
	}
	return bb
}

func TestAxisTrackerMatchesBatchEstimate(t *testing.T) {
	bb := axisSignal(4000)
	want := projectAxis(bb, estimateAxis(bb))
	for _, block := range []int{1, 37, 256, 1024, len(bb)} {
		var tr AxisTracker
		for off := 0; off < len(bb); off += block {
			end := off + block
			if end > len(bb) {
				end = len(bb)
			}
			tr.Add(bb[off:end])
		}
		if tr.n != float64(len(bb)) {
			t.Fatalf("block %d: count %g, want %d", block, tr.n, len(bb))
		}
		got := tr.ProjectInto(make([]float64, len(bb)), bb, false)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("block %d: sample %d: got %v want %v", block, i, got[i], want[i])
			}
		}
	}
}

func TestAxisTrackerQuadratureOrthogonal(t *testing.T) {
	bb := axisSignal(2000)
	var tr AxisTracker
	tr.Add(bb)
	inphase := tr.ProjectInto(make([]float64, len(bb)), bb, false)
	quad := tr.ProjectInto(make([]float64, len(bb)), bb, true)
	// The two projections come from orthogonal rotations of the same
	// centred samples, so their energies sum to the centred energy.
	var eI, eQ, eC float64
	ax := tr.axis()
	for i, v := range bb {
		d := v - ax.mean
		eC += real(d)*real(d) + imag(d)*imag(d)
		eI += inphase[i] * inphase[i]
		eQ += quad[i] * quad[i]
	}
	if math.Abs(eI+eQ-eC) > 1e-6*eC {
		t.Fatalf("energy mismatch: I %g + Q %g != centred %g", eI, eQ, eC)
	}
}

func TestAxisTrackerEmptyAndReset(t *testing.T) {
	var tr AxisTracker
	identity := func(what string) {
		t.Helper()
		out := tr.ProjectInto(make([]float64, 3), []complex128{1, 2, 3}, false)
		for i, v := range out {
			if v != float64(i+1) {
				t.Fatalf("%s tracker should be the identity projection, got %v", what, out)
			}
		}
	}
	identity("empty")
	tr.Add([]complex128{5, 6})
	tr = AxisTracker{}
	identity("reset")
}
