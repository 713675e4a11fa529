package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/telemetry"
)

// The tests in this file compare the block-fed front end and the CFO
// correction with the code they replaced, bit for bit
// (math.Float64bits), and pin what a missed decode allocates.

// sameComplex reports whether a and b hold the same bits.
func sameComplex(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestRecordGatedMatchesRecordThenDemodulate requires the block-fed
// front end — gain once, then volts a block at a time into the
// demodulator — to return the baseband of the replaced chain: the whole
// recording's volts (Hydrophone.Record, which internal/hydrophone's
// test pins to the replaced one-pass recorder) demodulated by
// DownconvertGatedInto. It runs with and without auto-gain, with a
// recording that clips without it, and with gates at 0, inside and on
// the edges of a block, and at the last sample.
func TestRecordGatedMatchesRecordThenDemodulate(t *testing.T) {
	const fs, carrier, bitrate = 96000.0, 15000.0, 500.0
	rng := rand.New(rand.NewSource(71))
	n := 3*frontEndBlock + 123
	pressure := make([]float64, n)
	for i := range pressure {
		// ≈3 V peak at the H2a's 1 mV/Pa: clips at the 1 V line input.
		pressure[i] = 3000*math.Sin(2*math.Pi*carrier/fs*float64(i)) + 200*rng.NormFloat64()
	}
	lp, err := dsp.DesignButterworthLowpass(ChannelCutoff(fs, bitrate), fs, FilterOrder)
	if err != nil {
		t.Fatal(err)
	}
	for _, autoGain := range []bool{false, true} {
		r, err := NewReceiver(fs)
		if err != nil {
			t.Fatal(err)
		}
		r.Hydro.AutoGain = autoGain
		volts, err := r.Hydro.Record(pressure)
		if err != nil {
			t.Fatal(err)
		}
		clipped := 0
		for _, v := range volts {
			if math.Abs(v) >= r.Hydro.MaxInputV {
				clipped++
			}
		}
		if (clipped > 0) == autoGain {
			t.Fatalf("auto-gain %v: %d clipped samples", autoGain, clipped)
		}
		for _, gate := range []int{0, 1, frontEndBlock - 1, frontEndBlock, 2*frontEndBlock + 7, n - 1} {
			want, err := dsp.DownconvertGatedInto(nil, volts, dsp.NewPhasor(carrier, fs), lp, gate)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.recordGated(pressure, carrier, bitrate, gate)
			if err != nil {
				t.Fatal(err)
			}
			if !sameComplex(got, want) {
				t.Fatalf("auto-gain %v, gate %d: baseband differs from Record then DownconvertGatedInto", autoGain, gate)
			}
		}
	}
}

// refCorrectCFOIfReal is the replaced correctCFOIfReal, verbatim but
// for its receiver, with the replaced Cos/Sin rotation: it wrote the
// corrected stream into a copy, then compared concentrations.
func refCorrectCFOIfReal(fs float64, bb []complex128) ([]complex128, float64) {
	cfo := phy.EstimateCFO(bb, fs)
	if math.Abs(cfo) <= 0.5 {
		return bb, cfo
	}
	fixed := refCorrectCFO(bb, cfo, fs)
	if carrierConcentration(fixed) > carrierConcentration(bb) {
		return fixed, cfo
	}
	return bb, 0
}

// refCorrectCFO is the replaced phy.CorrectCFO, verbatim.
func refCorrectCFO(bb []complex128, cfo, fs float64) []complex128 {
	out := make([]complex128, len(bb))
	w := -2 * math.Pi * cfo / fs
	for i, v := range bb {
		ph := w * float64(i)
		out[i] = v * complex(math.Cos(ph), math.Sin(ph))
	}
	return out
}

// TestCorrectCFOIfRealMatchesReplaced runs the CFO step on three
// streams — an offset below 0.5 Hz, left alone; a carrier whose skewed
// estimate the concentration test rejects; and a real 30 Hz offset,
// corrected — on the batch path, in place over the workspace's
// baseband, and on DecodeBaseband's, into a copy that leaves the
// caller's stream as it was. Each must return the replaced step's
// stream and offset bit for bit, and the corrected stream's
// concentration, measured before anything is written, must be the
// replaced copy's.
func TestCorrectCFOIfRealMatchesReplaced(t *testing.T) {
	const fs = 96000.0
	rng := rand.New(rand.NewSource(72))
	n := 20000
	rotating := func(hz, noise float64) []complex128 {
		bb := make([]complex128, n)
		for i := range bb {
			bb[i] = cmplx.Rect(1, 2*math.Pi*hz*float64(i)/fs) + complex(noise*rng.NormFloat64(), noise*rng.NormFloat64())
		}
		return bb
	}
	// A strong fixed carrier plus a weak tone 40 Hz off: the estimate
	// leans towards the tone, and derotating by it smears the carrier.
	skewed := rotating(40, 0.01)
	for i := range skewed {
		skewed[i] = 0.3*skewed[i] + 1
	}
	cases := []struct {
		name string
		bb   []complex128
		kept bool // the replaced step kept a correction
	}{
		{"below 0.5 Hz", rotating(0.3, 0.05), false},
		{"rejected", skewed, false},
		{"kept", rotating(30, 0.05), true},
	}
	for _, c := range cases {
		want, wantCFO := refCorrectCFOIfReal(fs, c.bb)
		if kept := &want[0] != &c.bb[0]; kept != c.kept {
			t.Fatalf("%s: replaced step kept a correction: %v, want %v", c.name, kept, c.kept)
		}
		if c.name == "rejected" && (wantCFO != 0 || math.Abs(phy.EstimateCFO(c.bb, fs)) <= 0.5) {
			t.Fatalf("%s: estimate %g Hz, replaced step returned %g; the case rejects nothing", c.name, phy.EstimateCFO(c.bb, fs), wantCFO)
		}
		if est := phy.EstimateCFO(c.bb, fs); math.Abs(est) > 0.5 {
			got := correctedConcentration(c.bb, est, fs)
			if w := carrierConcentration(refCorrectCFO(c.bb, est, fs)); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: corrected concentration %v, replaced copy's %v", c.name, got, w)
			}
		}

		r, err := NewReceiver(fs)
		if err != nil {
			t.Fatal(err)
		}
		// Batch path: the stream is the workspace's own baseband.
		ws := r.work()
		ws.bb = append(ws.bb[:0], c.bb...)
		got, cfo := r.correctCFOIfReal(ws.bb)
		if !sameComplex(got, want) || math.Float64bits(cfo) != math.Float64bits(wantCFO) {
			t.Fatalf("%s, in place: offset %v, want %v, or the stream differs", c.name, cfo, wantCFO)
		}
		if c.kept && &got[0] != &ws.bb[0] {
			t.Fatalf("%s, in place: the correction was not written over the baseband", c.name)
		}
		// DecodeBaseband's path: the caller's stream stays as it was.
		caller := append([]complex128(nil), c.bb...)
		got, cfo = r.correctCFOIfReal(caller)
		if !sameComplex(got, want) || math.Float64bits(cfo) != math.Float64bits(wantCFO) {
			t.Fatalf("%s, copy: offset %v, want %v, or the stream differs", c.name, cfo, wantCFO)
		}
		if !sameComplex(caller, c.bb) {
			t.Fatalf("%s, copy: the caller's stream changed", c.name)
		}
	}
}

// TestDecodeBasebandMissAllocatesNothing warms a Receiver on windows
// that decode nothing — white and filtered noise, a preamble too weak
// to survive axis refinement, and a clean packet with a bad CRC — and
// requires every further attempt on them to allocate nothing, with
// telemetry on and off: a streaming window attempt that misses must
// cost no garbage.
func TestDecodeBasebandMissAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const fs, bitrate = 96000.0, 500.0
	spb, err := phy.SamplesPerBitFor(fs, bitrate)
	if err != nil {
		t.Fatal(err)
	}
	m, err := phy.NewFM0(spb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	n := 120 * spb
	noise := make([]complex128, n)
	for i := range noise {
		noise[i] = complex(1+0.1*rng.NormFloat64(), 0.1*rng.NormFloat64())
	}
	// Noise through the channel filter is smooth enough at this
	// bitrate to clear both thresholds here and there, so candidates
	// reach the frame decoder and fail there.
	lp, err := dsp.DesignButterworthLowpass(ChannelCutoff(fs, bitrate), fs, FilterOrder)
	if err != nil {
		t.Fatal(err)
	}
	re, im := make([]float64, n), make([]float64, n)
	for i := range re {
		re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	re, im = lp.Filter(re), lp.Filter(im)
	smooth := make([]complex128, n)
	for i := range smooth {
		smooth[i] = complex(1+re[i], im[i])
	}
	weak := append([]complex128(nil), noise...)
	for i, v := range m.EncodeTemplate(phy.PreambleBits) {
		weak[20*spb+i] += complex(0.05*v, 0)
	}
	// A clean packet whose CRC does not match: every stage runs, and
	// the frame decoder rejects each lock.
	raw, err := frame.DataFrame{Source: 1, Payload: []byte{0, 0x32}}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x5a
	wave, _ := m.Encode(append(append([]phy.Bit(nil), phy.PreambleBits...), phy.BytesToBits(raw)...), 1)
	badCRC := append([]complex128(nil), noise...)
	for i, v := range wave {
		badCRC[10*spb+i] += complex(0.3*v, 0)
	}
	cases := []struct {
		name string
		bb   []complex128
		want error // nil: any miss
	}{
		{"white noise", noise, errNoCandidates},
		{"filtered noise", smooth, nil},
		{"weak preamble", weak, errNoRefined},
		{"bad CRC", badCRC, frame.ErrDataCRC},
	}
	r, err := NewReceiver(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer telemetry.SetEnabled(telemetry.Enabled())
	for _, on := range []bool{false, true} {
		telemetry.SetEnabled(on)
		for _, c := range cases {
			dec, err := r.DecodeBaseband(c.bb, bitrate)
			if err == nil {
				t.Fatalf("%s: decoded %+v from a window with no frame", c.name, dec.Frame)
			}
			if c.want != nil && err != c.want {
				t.Fatalf("%s: %v, want %v", c.name, err, c.want)
			}
			allocs := testing.AllocsPerRun(5, func() { _, _ = r.DecodeBaseband(c.bb, bitrate) })
			t.Logf("telemetry %v, %s (%v): %.0f allocations per attempt", on, c.name, err, allocs)
			if allocs != 0 {
				t.Errorf("telemetry %v, %s: %.0f allocations per missed attempt, want 0", on, c.name, allocs)
			}
		}
	}
}
