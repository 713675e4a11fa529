package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"pab/internal/dsp"
	"pab/internal/fault"
	"pab/internal/frame"
)

// synthCase is one seeded exchange of the synthesis golden set. A
// non-empty fault names a fault profile whose engine is attached, with
// its clock advanced to faultAtS, before the query.
type synthCase struct {
	equivCase
	fault    string
	faultAtS float64
}

// synthGoldens pins RunQuery's sample-level synthesis bit for bit: the
// sha256 of each exchange's Recording (math.Float64bits, little-endian),
// then its DecodeGate and its UplinkBits. The hashes were computed on
// amd64 with the textbook FFT and scatter convolution that the oracle
// tests in internal/dsp and internal/channel keep as references; a
// change to the synthesis path must leave them unchanged.
var synthGoldens = []struct {
	c    synthCase
	hash string
}{
	{synthCase{equivCase: equivCase{bitrate: 500, noisePa: 0.5, seed: 11}},
		"b155d12b4b2d369240fea26be4614e81341d4e57fb2b80194fcf62efb8e83b99"},
	{synthCase{equivCase: equivCase{bitrate: 1000, noisePa: 2, seed: 12}},
		"ada7e6527b7aac74fc2ac6a56d21f48268f06c5b7cf1865c741cc74d55068d44"},
	{synthCase{equivCase: equivCase{bitrate: 2000, noisePa: 5, seed: 13}},
		"84f74537c68dc8716cd790119890d9164ff1eea26be29b9c5c290413f9fda5f3"},
	{synthCase{equivCase: equivCase{bitrate: 500, noisePa: 2, poolB: true, seed: 14}},
		"18f59472a937956dbe7fdb221b9bb2568cb25fe654988e20d564315adfe6a1a0"},
	{synthCase{equivCase: equivCase{bitrate: 1000, noisePa: 5, poolB: true, seed: 15}},
		"da28229d45474877ebc06f05c07d390a58497ac650672947194445b36e8230e2"},
	{synthCase{equivCase: equivCase{bitrate: 2000, noisePa: 0.5, poolB: true, seed: 16}},
		"42cba5984b1140e8a2ed42b8e93f1c45b3bd7a88041c96dff575b0ba6b530f81"},
	// Drifting nodes: a receding node's reflection is stretched past the
	// direct path; at 12 m/s an approaching node's is compressed short
	// of it, so the recording is the direct path's length.
	{synthCase{equivCase: equivCase{bitrate: 1000, noisePa: 0.5, speedMS: -3, seed: 17}},
		"9239ed775131504a25dfd8ad72e3966fd6004793ea4ce3b3df7eaf4293990bfb"},
	{synthCase{equivCase: equivCase{bitrate: 2000, noisePa: 2, speedMS: 12, seed: 19}},
		"47be1621ed9a6b73b916b78d0083765dd423b86ae82ea3b057f0221188cdaff3"},
	// storm at 38.5 s: an uplink fade (gain ≈0.50) and a 3.6× noise step.
	{synthCase{equivCase: equivCase{bitrate: 500, noisePa: 0.5, seed: 18}, fault: "storm", faultAtS: 38.5},
		"16cde8b7ac03190b95b54d4005c313ba0df312d0fb424c91cf49b7265f32e14b"},
}

// synthesisHash runs the case's exchange and hashes what it synthesized.
func (c synthCase) synthesisHash(t *testing.T) string {
	t.Helper()
	link := c.poweredLink(t)
	if c.fault != "" {
		p, err := fault.ByName(c.fault)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := fault.NewEngine(p, 1, 60, []byte{0x01})
		if err != nil {
			t.Fatal(err)
		}
		eng.Advance(c.faultAtS)
		link.SetFaultEngine(eng)
	}
	res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	if res.UplinkBits == nil {
		t.Fatalf("%v: node sent no uplink", c.equivCase)
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range res.Recording {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(res.DecodeGate))
	h.Write(b[:])
	for _, bit := range res.UplinkBits {
		h.Write([]byte{byte(bit)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSynthesisGolden pins the recordings, decode gates and uplink bits
// of the golden exchanges at 496.5, 993 and 2048 bit/s in both pools,
// a drifting node and a faded, noisy exchange under a fault engine.
func TestSynthesisGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sample-level exchanges")
	}
	for _, g := range synthGoldens {
		if got := g.c.synthesisHash(t); got != g.hash {
			t.Errorf("%v fault=%q: synthesis hash %s, want %s", g.c.equivCase, g.c.fault, got, g.hash)
		}
	}
}

// TestSuperposeMatchesZeroedSum pins superpose to the sum it replaced —
// a zeroed buffer of the longer length, direct copied in, scattered
// added — bit for bit, signed zeros included, whichever side is longer.
func TestSuperposeMatchesZeroedSum(t *testing.T) {
	negZero := math.Copysign(0, -1)
	short := []float64{1, negZero, 0, -2}
	long := []float64{negZero, negZero, 3, 0, negZero, negZero, 0.5}
	for _, tc := range []struct{ direct, scattered []float64 }{
		{short, long},
		{long, long},
		{long, short},
		{short, short[:2]},
		{short, nil},
	} {
		want := make([]float64, max(len(tc.direct), len(tc.scattered)))
		copy(want, tc.direct)
		dsp.Add(want, tc.scattered)
		got := superpose(append([]float64(nil), tc.direct...), append([]float64(nil), tc.scattered...))
		if len(got) != len(want) {
			t.Fatalf("len %d, want %d", len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("direct %v, scattered %v: sample %d is %v, want %v", tc.direct, tc.scattered, i, got[i], want[i])
			}
		}
	}
}
