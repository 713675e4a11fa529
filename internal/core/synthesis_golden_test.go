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
// path plus the node's reflection, real(Γ·field), of the field at the
// node, plus the link's seeded noise; the field and the direct path are
// the projector's keyed carrier times its envelope through each
// response (channel.ImpulseResponse.Carry), the carrier taken from a
// dsp.Phasor. The hashes were computed on amd64; a change to the
// synthesis path must leave them unchanged, or re-pin them with each
// recording's largest move relative to its peak.
var synthGoldens = []struct {
	c    synthCase
	hash string
}{
	{synthCase{equivCase: equivCase{bitrate: 500, noisePa: 0.5, seed: 11}},
		"098b8c38a3eca2d7f0469f9d20c81b84180151dd0a0425fb7f47d2fb6a14052a"},
	{synthCase{equivCase: equivCase{bitrate: 1000, noisePa: 2, seed: 12}},
		"dbf4d108593ef14f5096912f8a0b8005c4faa6baec42678bb94ccdcb1e552b61"},
	{synthCase{equivCase: equivCase{bitrate: 2000, noisePa: 5, seed: 13}},
		"b01aa7210cb47e8cd181a35eb46b6962248b4b4f78430f9b3c5e70cc83e85da3"},
	{synthCase{equivCase: equivCase{bitrate: 500, noisePa: 2, poolB: true, seed: 14}},
		"8c42add9604dadc39b363619f368d45c96c34a38e6ea5acecd6dea09f7db0d30"},
	{synthCase{equivCase: equivCase{bitrate: 1000, noisePa: 5, poolB: true, seed: 15}},
		"f57f3d855b399b17bb036a02e3f181422cb350e661a037bb631ce94b11778c42"},
	{synthCase{equivCase: equivCase{bitrate: 2000, noisePa: 0.5, poolB: true, seed: 16}},
		"0744b6bd7d3df9ffa6b534d1bc1d00b1df551696289253b27ce228ada5b925e3"},
	// Drifting nodes: a receding node's reflection is stretched past the
	// direct path; at 12 m/s an approaching node's is compressed short
	// of it, so the recording is the direct path's length.
	{synthCase{equivCase: equivCase{bitrate: 1000, noisePa: 0.5, speedMS: -3, seed: 17}},
		"c2c60302290f35c01a8168be898e09c1b8efc9a38052a4bc1aefd928cf46d7e4"},
	{synthCase{equivCase: equivCase{bitrate: 2000, noisePa: 2, speedMS: 12, seed: 19}},
		"29087b5a2880742e10ff097e490671e652878e194578331015f0b022b56201d8"},
	// storm at 38.5 s: an uplink fade (gain ≈0.50) and a 3.6× noise step.
	{synthCase{equivCase: equivCase{bitrate: 500, noisePa: 0.5, seed: 18}, fault: "storm", faultAtS: 38.5},
		"1cad95253d21bb8085cbc6a19743874658ccb2d1d1c5ef87bb7cef7d554b185b"},
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

// TestSuperposeMatchesZeroedSum pins superpose to the sum it stands
// for — a zeroed buffer as long as the longer of y and the carrier, y
// copied in, the carrier's samples added over their span — bit for bit,
// signed zeros included, whichever side is longer, and requires it to
// write over y when y has the room.
func TestSuperposeMatchesZeroedSum(t *testing.T) {
	negZero := math.Copysign(0, -1)
	osc := dsp.NewPhasor(15000, 96000)
	env := dsp.Steps{{At: 2, V: 3 - 1i}, {At: 5, V: 0}, {At: 700, V: 0.5}, {At: 1500}}
	long := make([]float64, 2100)
	for i := range long {
		long[i] = []float64{negZero, 0, 1.5, -2}[i%4]
	}
	for _, tc := range []struct {
		y    []float64
		room int
		m    int
	}{
		{long[:10], 0, 1600},
		{long[:10], 1590, 1600},
		{long, 0, 1600},
		{long[:1600], 0, 1600},
		{nil, 0, 1600},
		{long[:3], 0, 0},
	} {
		want := make([]float64, max(len(tc.y), tc.m))
		copy(want, tc.y)
		u := make([]complex128, tc.m)
		osc.Modulate(u, 0, env)
		for i, v := range u {
			want[i] = imag(v) + want[i]
		}
		y := append(make([]float64, 0, len(tc.y)+tc.room), tc.y...)
		got := superpose(y, tc.m, osc, env)
		if len(got) != len(want) {
			t.Fatalf("len %d, m %d: length %d, want %d", len(tc.y), tc.m, len(got), len(want))
		}
		if cap(y) >= len(want) && len(want) > 0 && &got[0] != &y[:1][0] {
			t.Errorf("len %d, room %d, m %d: did not write over y", len(tc.y), tc.room, tc.m)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("len %d, m %d: sample %d is %v, want %v", len(tc.y), tc.m, i, got[i], want[i])
			}
		}
	}
}

// runQueryAllocBounds bound one warm RunQuery at 496.5, 993 and 2048
// bit/s in the default geometry. The bytes are the maximum measured on
// amd64 (1.71, 1.44 and 1.28 MB) plus about a quarter, less than one
// more recording-length buffer (0.86, 0.68 and 0.59 MB), such as a
// materialized rail of the keyed carrier. The 57–58 allocations stay
// under the bound of the rendered synthesis.
var runQueryAllocBounds = []struct {
	bitrate float64
	allocs  float64
	bytes   uint64
}{
	{500, 62, 2_150_000},
	{1000, 62, 1_800_000},
	{2000, 62, 1_610_000},
}

// TestRunQueryAllocs bounds what one exchange allocates once its link
// is warm: the synthesis's one recording-length buffer and its carried
// envelopes, the node's envelope and switch states, and the decode's
// result.
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
