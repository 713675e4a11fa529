package phy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBits(rng *rand.Rand, n int) []Bit {
	bits := make([]Bit, n)
	for i := range bits {
		bits[i] = Bit(rng.Intn(2))
	}
	return bits
}

func TestBitsBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		bits := BytesToBits(data)
		back, err := BitsToBytes(bits)
		if err != nil {
			return false
		}
		if len(back) != len(data) {
			return false
		}
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsToBytesErrors(t *testing.T) {
	if _, err := BitsToBytes(make([]Bit, 7)); err == nil {
		t.Error("non-multiple-of-8 should error")
	}
	if _, err := BitsToBytes([]Bit{2, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("non-binary value should error")
	}
}

func TestBytesToBitsKnown(t *testing.T) {
	bits := BytesToBits([]byte{0xA5})
	want := []Bit{1, 0, 1, 0, 0, 1, 0, 1}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d = %d, want %d", i, bits[i], want[i])
		}
	}
}

func TestCountBitErrors(t *testing.T) {
	if e := CountBitErrors([]Bit{1, 0, 1}, []Bit{1, 1, 1}); e != 1 {
		t.Errorf("errors = %d, want 1", e)
	}
	if e := CountBitErrors([]Bit{1, 0, 1, 0}, []Bit{1, 0}); e != 2 {
		t.Errorf("length mismatch errors = %d, want 2", e)
	}
	if b := BER([]Bit{1, 0, 1, 0}, []Bit{1, 0, 1, 0}); b != 0 {
		t.Errorf("perfect BER = %g", b)
	}
	if b := BER(nil, nil); b != 0 {
		t.Errorf("empty BER = %g", b)
	}
}

func TestFM0Validation(t *testing.T) {
	if _, err := NewFM0(1); err == nil {
		t.Error("1 sample/bit should error")
	}
	if _, err := NewFM0(5); err == nil {
		t.Error("odd samples/bit should error")
	}
	if _, err := NewFM0(8); err != nil {
		t.Errorf("8 samples/bit should be fine: %v", err)
	}
}

func TestFM0EncodeInvariants(t *testing.T) {
	m, _ := NewFM0(8)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := randBits(rng, 1+rng.Intn(64))
		wave, final := m.Encode(bits, 1)
		if len(wave) != len(bits)*8 {
			return false
		}
		// Invariant: the level always inverts at each bit boundary.
		prevEnd := 1.0
		for i := range bits {
			segStart := wave[i*8]
			if segStart != -prevEnd {
				return false
			}
			prevEnd = wave[i*8+7]
		}
		// Invariant: data-0 has a mid-bit transition, data-1 does not.
		for i, b := range bits {
			first := wave[i*8+3]
			second := wave[i*8+4]
			if b == 0 && first == second {
				return false
			}
			if b == 1 && first != second {
				return false
			}
		}
		return final == prevEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFM0RoundTripClean(t *testing.T) {
	m, _ := NewFM0(10)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		bits := randBits(rng, 40)
		for _, start := range []float64{1, -1} {
			wave, _ := m.Encode(bits, start)
			got, conf := m.DecodeFrom(wave, len(bits), start)
			if CountBitErrors(bits, got) != 0 {
				t.Fatalf("trial %d start %g: round trip failed", trial, start)
			}
			if conf <= 0 {
				t.Fatalf("confidence %g should be positive on clean input", conf)
			}
		}
	}
}

func TestFM0RoundTripPropertyBased(t *testing.T) {
	m, _ := NewFM0(6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// ≥2 bits: a lone '1' is a constant waveform with no level
		// reference (see DecodeFrom docs).
		bits := randBits(rng, 2+rng.Intn(100))
		wave, _ := m.Encode(bits, 1)
		got, _ := m.DecodeFrom(wave, len(bits), 1)
		return CountBitErrors(bits, got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFM0SingleOneBitIsAmbiguous(t *testing.T) {
	// Documented degenerate case: a lone '1' encodes to a constant
	// waveform; the amplitude-invariant decoder cannot tell which level
	// it sits at. The decode must still return exactly one bit.
	m, _ := NewFM0(6)
	wave, _ := m.Encode([]Bit{1}, 1)
	got, _ := m.DecodeFrom(wave, 1, 1)
	if len(got) != 1 {
		t.Fatalf("got %d bits, want 1", len(got))
	}
}

func TestFM0DecodeWithOffsetAndScale(t *testing.T) {
	// Receiver sees arbitrary amplitude levels, e.g. 0.8 (reflective)
	// and 0.55 (absorptive), not ±1.
	m, _ := NewFM0(12)
	rng := rand.New(rand.NewSource(9))
	bits := randBits(rng, 60)
	wave, _ := m.Encode(bits, 1)
	for i, v := range wave {
		wave[i] = 0.675 + v*0.125 // maps ±1 → {0.8, 0.55}
	}
	got, _ := m.DecodeFrom(wave, len(bits), 1)
	if CountBitErrors(bits, got) != 0 {
		t.Error("decode should be amplitude-invariant")
	}
}

func TestFM0DecodeNoisy(t *testing.T) {
	m, _ := NewFM0(16)
	rng := rand.New(rand.NewSource(11))
	bits := randBits(rng, 100)
	wave, _ := m.Encode(bits, 1)
	// Strong noise (σ = 0.5 on ±1 levels ⇒ per-sample SNR 6 dB; with 8
	// samples per half-bit the ML decoder should still be clean).
	for i := range wave {
		wave[i] += rng.NormFloat64() * 0.5
	}
	got, _ := m.DecodeFrom(wave, len(bits), 1)
	if e := CountBitErrors(bits, got); e > 1 {
		t.Errorf("noisy decode: %d errors", e)
	}
}

func TestMLBeatsThresholdSlicer(t *testing.T) {
	// The ablation claim: at moderate noise the ML decoder makes fewer
	// errors than the naive slicer.
	m, _ := NewFM0(8)
	rng := rand.New(rand.NewSource(13))
	mlErrs, thErrs := 0, 0
	for trial := 0; trial < 60; trial++ {
		bits := randBits(rng, 80)
		wave, _ := m.Encode(bits, 1)
		for i := range wave {
			wave[i] += rng.NormFloat64() * 0.9
		}
		ml, _ := m.DecodeFrom(wave, len(bits), 1)
		th := m.ThresholdDecode(wave, len(bits))
		mlErrs += CountBitErrors(bits, ml)
		thErrs += CountBitErrors(bits, th)
	}
	if mlErrs >= thErrs {
		t.Errorf("ML decoder (%d errors) should beat threshold slicer (%d)", mlErrs, thErrs)
	}
}

func TestFM0DecodeTruncated(t *testing.T) {
	m, _ := NewFM0(8)
	bits := []Bit{1, 0, 1}
	wave, _ := m.Encode(bits, 1)
	got, _ := m.DecodeFrom(wave, 10, 1) // ask for more bits than present
	if len(got) != 3 {
		t.Errorf("decode should clamp to available bits, got %d", len(got))
	}
	if out, _ := m.DecodeFrom(wave[:4], 1, 1); out != nil {
		t.Error("waveform shorter than a bit should decode to nil")
	}
}

func TestSamplesPerBitFor(t *testing.T) {
	spb, err := SamplesPerBitFor(96000, 1000)
	if err != nil || spb != 96 {
		t.Errorf("spb = %d, %v; want 96", spb, err)
	}
	spb, err = SamplesPerBitFor(96000, 2800)
	if err != nil || spb%2 != 0 {
		t.Errorf("spb = %d should be even", spb)
	}
	if _, err := SamplesPerBitFor(0, 100); err == nil {
		t.Error("zero fs should error")
	}
	if _, err := SamplesPerBitFor(96000, 1e6); err == nil {
		t.Error("bitrate far above fs should error")
	}
}

func TestOccupiedBandwidth(t *testing.T) {
	if OccupiedBandwidth(1000) != 2000 {
		t.Error("FM0 bandwidth should be 2× bitrate")
	}
}

// keyingEnvelope lays Keying's runs of bits end to end: the on/off
// envelope (1 = carrier on, 0 = off) a node's trigger sees.
func keyingEnvelope(p *PWM, bits []Bit) []float64 {
	var env []float64
	p.Keying(bits, func(level float64, samples int) {
		for range samples {
			env = append(env, level)
		}
	})
	return env
}

func TestPWMRoundTrip(t *testing.T) {
	p, _ := NewPWM(10)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := randBits(rng, 1+rng.Intn(40))
		env := keyingEnvelope(p, bits)
		levels := make([]bool, len(env))
		for i, v := range env {
			levels[i] = v > 0.5
		}
		got := p.Decode(levels)
		return CountBitErrors(bits, got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPWMEncodedLength requires the keying of a bit to last two units
// for a 0 and three for a 1.
func TestPWMEncodedLength(t *testing.T) {
	p, _ := NewPWM(10)
	for _, tc := range []struct {
		bits []Bit
		n    int
	}{{[]Bit{0}, 20}, {[]Bit{1}, 30}, {[]Bit{0, 1, 0}, 70}} {
		if n := len(keyingEnvelope(p, tc.bits)); n != tc.n {
			t.Errorf("keying of %v lasts %d samples, want %d", tc.bits, n, tc.n)
		}
	}
}

func TestPWMTimingJitterTolerance(t *testing.T) {
	// Decode survives ±20% envelope timing jitter (resampling effects).
	p, _ := NewPWM(20)
	rng := rand.New(rand.NewSource(3))
	bits := randBits(rng, 20)
	env := keyingEnvelope(p, bits)
	levels := make([]bool, 0, len(env))
	for i := 0; i < len(env); i++ {
		levels = append(levels, env[i] > 0.5)
		// Occasionally duplicate or drop samples.
		switch rng.Intn(10) {
		case 0:
			levels = append(levels, env[i] > 0.5)
		case 1:
			i++
		}
	}
	got := p.Decode(levels)
	if e := CountBitErrors(bits, got); e > 1 {
		t.Errorf("jittered decode: %d errors (got %d bits, want %d)", e, len(got), len(bits))
	}
}

func TestPWMValidation(t *testing.T) {
	if _, err := NewPWM(1); err == nil {
		t.Error("1 sample/unit should error")
	}
}

func TestSchmittTriggerHysteresis(t *testing.T) {
	// Small dips below the high threshold must not toggle the output.
	env := []float64{0, 0.9, 0.75, 0.9, 0.28, 0.05, 0.5, 0.9}
	lv := SchmittTrigger(env, 0.7, 0.3)
	// peak 0.9 ⇒ high threshold 0.63, low threshold 0.27. The dip to
	// 0.28 stays above the low threshold (hysteresis holds the state);
	// 0.05 releases it; 0.5 is below the high threshold so it stays low.
	want := []bool{false, true, true, true, true, false, false, true}
	for i := range want {
		if lv[i] != want[i] {
			t.Errorf("schmitt[%d] = %v, want %v", i, lv[i], want[i])
		}
	}
	if SchmittTrigger(nil, 0.7, 0.3) != nil {
		t.Error("empty input should give nil")
	}
}

// detectPacket is the strongest candidate a fresh detector finds.
func detectPacket(wave []float64, m *FM0, threshold float64) (Sync, error) {
	cands, err := NewSharedDetector(m, new(DetectScratch)).Candidates(wave, threshold, 1, 0)
	if err != nil {
		return Sync{}, err
	}
	return cands[0], nil
}

func TestDetectPacket(t *testing.T) {
	m, _ := NewFM0(12)
	rng := rand.New(rand.NewSource(21))
	payload := randBits(rng, 30)
	frame := append(append([]Bit{}, PreambleBits...), payload...)
	wave, _ := m.Encode(frame, 1)
	// Prepend noise-only lead-in and add noise throughout.
	lead := 500
	rx := make([]float64, lead+len(wave)+200)
	for i := range rx {
		rx[i] = rng.NormFloat64() * 0.2
	}
	for i, v := range wave {
		rx[lead+i] += v
	}
	sync, err := detectPacket(rx, m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sync.Index != lead {
		t.Errorf("preamble at %d, want %d", sync.Index, lead)
	}
	if sync.Score < 0.8 {
		t.Errorf("score %g low", sync.Score)
	}
	if sync.StartLevel != 1 {
		t.Errorf("start level %g, want +1", sync.StartLevel)
	}
	// Decode payload after the preamble using the tracked level.
	got, _ := m.DecodeFrom(rx[sync.PayloadIndex:], len(payload), sync.PayloadLevel)
	if e := CountBitErrors(payload, got); e != 0 {
		t.Errorf("payload decode: %d errors", e)
	}
}

func TestDetectPacketInverted(t *testing.T) {
	// The FM0 start level is unknown; an inverted preamble must still be
	// found.
	m, _ := NewFM0(12)
	frame := append(append([]Bit{}, PreambleBits...), 1, 0, 1, 1)
	wave, _ := m.Encode(frame, -1)
	rx := make([]float64, 300+len(wave))
	copy(rx[300:], wave)
	sync, err := detectPacket(rx, m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sync.Index != 300 {
		t.Errorf("inverted preamble at %d, want 300", sync.Index)
	}
	if sync.StartLevel != -1 {
		t.Errorf("start level %g, want −1", sync.StartLevel)
	}
	// And the payload decodes with the tracked level.
	got, _ := m.DecodeFrom(rx[sync.PayloadIndex:], 4, sync.PayloadLevel)
	if CountBitErrors([]Bit{1, 0, 1, 1}, got) != 0 {
		t.Error("inverted-polarity payload decode failed")
	}
}

func TestDetectPacketAbsent(t *testing.T) {
	m, _ := NewFM0(12)
	rng := rand.New(rand.NewSource(7))
	rx := make([]float64, 2000)
	for i := range rx {
		rx[i] = rng.NormFloat64()
	}
	if _, err := detectPacket(rx, m, 0.85); err == nil {
		t.Error("pure noise should not contain a preamble at 0.85 threshold")
	}
	if _, err := detectPacket(rx[:10], m, 0.5); err == nil {
		t.Error("too-short waveform should error")
	}
}

func TestEstimateAndCorrectCFO(t *testing.T) {
	fs := 96000.0
	cfo := 35.0 // Hz offset between projector and hydrophone oscillators
	n := 9600
	bb := make([]complex128, n)
	for i := range bb {
		ph := 2 * math.Pi * cfo * float64(i) / fs
		bb[i] = complex(math.Cos(ph), math.Sin(ph))
	}
	est := EstimateCFO(bb, fs)
	if math.Abs(est-cfo) > 0.5 {
		t.Fatalf("CFO estimate %g, want %g", est, cfo)
	}
	fixed := CorrectCFOInto(nil, bb, est, fs)
	if resid := EstimateCFO(fixed, fs); math.Abs(resid) > 0.5 {
		t.Errorf("residual CFO %g after correction", resid)
	}
	if EstimateCFO(nil, fs) != 0 {
		t.Error("empty CFO estimate should be 0")
	}
}

func TestEstimateCFOWithAmplitudeModulation(t *testing.T) {
	// Backscatter amplitude-modulates the envelope; the lag-1 estimator
	// must remain accurate.
	fs := 96000.0
	cfo := -20.0
	n := 9600
	bb := make([]complex128, n)
	for i := range bb {
		amp := 1.0
		if (i/480)%2 == 0 {
			amp = 0.6
		}
		ph := 2 * math.Pi * cfo * float64(i) / fs
		bb[i] = complex(amp*math.Cos(ph), amp*math.Sin(ph))
	}
	if est := EstimateCFO(bb, fs); math.Abs(est-cfo) > 1 {
		t.Errorf("CFO estimate %g under AM, want %g", est, cfo)
	}
}

func TestMeasureSNR(t *testing.T) {
	m, _ := NewFM0(16)
	rng := rand.New(rand.NewSource(31))
	bits := randBits(rng, 80)
	wave, _ := m.Encode(bits, 1)
	// Scale to modulation amplitude 0.2 around offset 1.0, add noise σ.
	sigma := 0.05
	for i := range wave {
		wave[i] = 1.0 + 0.2*wave[i] + rng.NormFloat64()*sigma
	}
	snr := MeasureSNR(wave, bits, m)
	// Decision-level SNR: each half-bit decision averages the central
	// 4 of 8 samples, so the noise power per decision is σ²/4.
	want := 0.2 * 0.2 / (sigma * sigma / 4)
	if snr < want/2 || snr > want*2 {
		t.Errorf("SNR %g, want ~%g", snr, want)
	}
	if MeasureSNR(wave, nil, m) != 0 {
		t.Error("no bits should give zero SNR")
	}
	if MeasureSNR(wave[:10], bits, m) != 0 {
		t.Error("short wave should give zero SNR")
	}
}
