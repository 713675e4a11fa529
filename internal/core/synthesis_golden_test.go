package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
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
// then its DecodeGate and its UplinkBits. The recording is the direct
// path plus the node's reflection, real(Γ·field), of the complex field
// that the channel carries from the projector's keyed carrier and its
// quadrature (projector.Query), plus the link's seeded noise. The
// hashes were computed on amd64 with the scatter convolution that the
// oracle tests in internal/channel keep as a reference; a change to
// the synthesis path must leave them unchanged.
var synthGoldens = []struct {
	c    synthCase
	hash string
}{
	{synthCase{equivCase: equivCase{bitrate: 500, noisePa: 0.5, seed: 11}},
		"6cf2b7dba4d81956b8312d57c6f4f491b85990c7957c335da9fb96dc808d8386"},
	{synthCase{equivCase: equivCase{bitrate: 1000, noisePa: 2, seed: 12}},
		"b6cb52d1445d697a0683c192dcb19cf83d6685d756697f89eff966af75754090"},
	{synthCase{equivCase: equivCase{bitrate: 2000, noisePa: 5, seed: 13}},
		"13b7c812602641aa930ad1ce7a96d26a96d5e641bfe7accb125402c8da4f2da6"},
	{synthCase{equivCase: equivCase{bitrate: 500, noisePa: 2, poolB: true, seed: 14}},
		"bc7afe97491d37a95d878ebf38cc7ea6cc4e0547697a6b5cae89f113f1bc791f"},
	{synthCase{equivCase: equivCase{bitrate: 1000, noisePa: 5, poolB: true, seed: 15}},
		"7d0667db2ce62cc49bc50b7d45f0a637554c755bda4e55befa64c2fa434d3d15"},
	{synthCase{equivCase: equivCase{bitrate: 2000, noisePa: 0.5, poolB: true, seed: 16}},
		"1e101748522444f793d14e3ec32c3ad515bc0cd9968aa01ef8ffb59faaf2705e"},
	// Drifting nodes: a receding node's reflection is stretched past the
	// direct path; at 12 m/s an approaching node's is compressed short
	// of it, so the recording is the direct path's length.
	{synthCase{equivCase: equivCase{bitrate: 1000, noisePa: 0.5, speedMS: -3, seed: 17}},
		"80719ebb992422769a57450831ba3051ace6ba32952b9420fcb31fe2b7cd3f32"},
	{synthCase{equivCase: equivCase{bitrate: 2000, noisePa: 2, speedMS: 12, seed: 19}},
		"f77359d0ec09dba6bac6137c4c64058a759832af0ee6fd669e7a7c52e4d7587f"},
	// storm at 38.5 s: an uplink fade (gain ≈0.50) and a 3.6× noise step.
	{synthCase{equivCase: equivCase{bitrate: 500, noisePa: 0.5, seed: 18}, fault: "storm", faultAtS: 38.5},
		"1dbc4adbffb8ab3650d20f371c4d7501a0ce68a7642daf6f77d50b0729c5f5f3"},
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

// runQueryAllocBounds bound one warm RunQuery at 496.5, 993 and 2048
// bit/s in the default geometry: the maximum measured on amd64 (66–69
// allocations; 5.88, 4.71 and 4.11 MB) plus about a quarter.
var runQueryAllocBounds = []struct {
	bitrate float64
	allocs  float64
	bytes   uint64
}{
	{500, 85, 7_350_000},
	{1000, 85, 5_900_000},
	{2000, 85, 5_150_000},
}

// TestRunQueryAllocs bounds what one exchange allocates once its link
// is warm: the synthesis's recording-length buffers, the node's
// envelope and switch states, and the decode's result.
func TestRunQueryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("sample-level exchanges")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the bounds hold for the uninstrumented build")
	}
	q := frame.Query{Dest: 0x01, Command: frame.CmdPing}
	for _, b := range runQueryAllocBounds {
		l := defaultPoweredLink(t, b.bitrate)
		run := func() {
			res, err := l.RunQuery(q)
			if err != nil || res.Decoded == nil {
				t.Fatalf("%g bit/s: exchange failed: %v", b.bitrate, err)
			}
		}
		run()
		allocs := testing.AllocsPerRun(3, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%g bit/s: %.0f allocs, %d bytes per exchange", b.bitrate, allocs, bytes)
		if allocs > b.allocs || bytes > b.bytes {
			t.Errorf("%g bit/s: %.0f allocations and %d bytes per exchange, want ≤ %.0f and ≤ %d",
				b.bitrate, allocs, bytes, b.allocs, b.bytes)
		}
	}
}
