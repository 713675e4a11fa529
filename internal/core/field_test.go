package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/projector"
	"pab/internal/sensors"
)

// The tests in this file pin the node's complex field, which RunQuery,
// RunTrace and RunConcurrent build from the projector's carrier and its
// quadrature. The in-phase rails must hold, bit for bit
// (math.Float64bits), what the replaced code synthesized, so the
// projector waveform, the direct path and the node's envelope decode
// are unchanged; the field must match the FFT analytic signal it
// replaced wherever the receiver reads the reply.

// refOscillator is dsp.Oscillator as the replaced synthesis stepped it,
// verbatim.
type refOscillator struct{ freq, fs, phase float64 }

func (o *refOscillator) Next() float64 {
	v := math.Sin(o.phase)
	o.phase += 2 * math.Pi * o.freq / o.fs
	if o.phase > 2*math.Pi {
		o.phase -= 2 * math.Pi
	}
	return v
}

// refQuery is the replaced projector.Query, verbatim but for its
// receiver and oscillator.
func refQuery(p *projector.Projector, q frame.Query, driveV, f float64, unitSamples int, tailSeconds float64) ([]float64, error) {
	pwm, err := phy.NewPWM(unitSamples)
	if err != nil {
		return nil, err
	}
	bits := append(append([]phy.Bit{}, phy.PreambleBits...), frame.Bits(q.Marshal())...)
	lead := 4 * unitSamples
	tail := int(tailSeconds * p.SampleRate)
	amp := p.PressureAmplitude(driveV, f)
	osc := &refOscillator{freq: f, fs: p.SampleRate}
	out := make([]float64, lead+pwm.EncodedLength(bits)+tail)
	for range lead {
		osc.Next()
	}
	i := lead
	pwm.Keying(bits, func(level float64, samples int) {
		for end := i + samples; i < end; i++ {
			out[i] = level * (amp * osc.Next())
		}
	})
	for ; i < len(out); i++ {
		out[i] = amp * osc.Next()
	}
	return out, nil
}

// refTraceCarrier is RunTrace's replaced oscillator loop, verbatim.
func refTraceCarrier(amp, f, fs float64, txIdx, n int) []float64 {
	x := make([]float64, n)
	osc := &refOscillator{freq: f, fs: fs}
	for i := txIdx; i < n; i++ {
		x[i] = amp * osc.Next()
	}
	return x
}

// refSine is dsp.Sine, which RunConcurrent's tones came from, verbatim.
func refSine(amplitude, f, fs, phase float64, n int) []float64 {
	out := make([]float64, n)
	w := 2 * math.Pi * f / fs
	for i := range out {
		out[i] = amplitude * math.Sin(w*float64(i)+phase)
	}
	return out
}

// refAnalyticSignal is the replaced dsp.AnalyticSignal, verbatim but
// for reaching its radix-2 kernel through dsp.FFT and dsp.IFFT, whose
// 1/m scaling is the one it applied.
func refAnalyticSignal(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	m := dsp.NextPow2(n)
	buf := make([]complex128, m)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	buf = dsp.FFT(buf)
	// Keep DC and Nyquist, double positive frequencies, zero negatives.
	for k := 1; k < m/2; k++ {
		buf[k] *= 2
	}
	for k := m/2 + 1; k < m; k++ {
		buf[k] = 0
	}
	return dsp.IFFT(buf)[:n]
}

// namedLink is a powered link and the name its test failures carry.
type namedLink struct {
	name string
	*Link
}

// fieldLinks returns powered links at 496.5, 993 and 2048 bit/s: in the
// default geometry, as BenchmarkLinkExchange and pabd link jobs build
// them, and in the equivalence set's quiet Pool A exchanges.
func fieldLinks(t *testing.T) []namedLink {
	t.Helper()
	var out []namedLink
	for _, br := range []float64{500, 1000, 2000} {
		out = append(out, namedLink{fmt.Sprintf("default/%gbps", br), defaultPoweredLink(t, br)})
	}
	for _, c := range equivCases()[:3] {
		out = append(out, namedLink{c.String(), c.poweredLink(t)})
	}
	return out
}

// defaultPoweredLink builds the default link with a paper node at the
// bitrate and powers it up.
func defaultPoweredLink(t *testing.T, bitrate float64) *Link {
	t.Helper()
	cfg := DefaultLinkConfig()
	n, err := NewPaperNode(0x01, bitrate, sensors.RoomTank())
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewPaperProjector(cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLink(cfg, n, proj)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.EnsurePowered(120); err != nil {
		t.Fatal(err)
	}
	return l
}

// firstBitMismatch returns the first index where got and want hold
// different bits, or −1.
func firstBitMismatch(got, want []float64) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkQuadrature requires quad[i] to be −level[i]·amp·cos θ, θ the
// phase of a reference oscillator started at sample on, and zero (of
// either sign) before it.
func checkQuadrature(t *testing.T, name string, quad, level []float64, amp, f, fs float64, on int) {
	t.Helper()
	osc := &refOscillator{freq: f, fs: fs}
	for i, v := range quad {
		want := 0.0
		if i >= on {
			want = -level[i] * (amp * math.Cos(osc.phase))
			osc.Next()
		}
		if math.Float64bits(v) != math.Float64bits(want) && (want != 0 || v != 0) {
			t.Fatalf("%s: quadrature sample %d is %v, want %v", name, i, v, want)
		}
	}
}

// queryLevels returns the keying level of each sample of q's query
// waveform: off through the lead-in, the PWM keying, on through the
// tail.
func queryLevels(q frame.Query, unitSamples, n int) []float64 {
	pwm, _ := phy.NewPWM(unitSamples)
	level := make([]float64, n)
	i := 4 * unitSamples
	pwm.Keying(append(append([]phy.Bit{}, phy.PreambleBits...), frame.Bits(q.Marshal())...), func(l float64, samples int) {
		for end := i + samples; i < end; i++ {
			level[i] = l
		}
	})
	for ; i < n; i++ {
		level[i] = 1
	}
	return level
}

// TestCarrierRailsMatchReplaced requires the in-phase rail of each
// carrier generator to be the replaced waveform bit for bit, and its
// quadrature to be −amp·cos of the same phase, at the lengths of the
// queries at the three bitrates: Query's keyed carrier, RunTrace's
// switched CW (also at Fig 2's 1.6 s) and RunConcurrent's tones.
func TestCarrierRailsMatchReplaced(t *testing.T) {
	q := frame.Query{Dest: 0x01, Command: frame.CmdPing}
	for _, br := range []float64{500, 1000, 2000} {
		l := defaultPoweredLink(t, br)
		c, cfg := fmt.Sprintf("%gbps", br), l.cfg
		tail := l.queryTail()
		wave, quad, err := l.proj.Query(q, cfg.DriveV, cfg.CarrierHz, cfg.PWMUnit, tail)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refQuery(l.proj, q, cfg.DriveV, cfg.CarrierHz, cfg.PWMUnit, tail)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstBitMismatch(wave, want); i >= 0 {
			t.Fatalf("%v: query sample %d of %d differs from the replaced Query", c, i, len(want))
		}
		n := len(want)
		amp := l.proj.PressureAmplitude(cfg.DriveV, cfg.CarrierHz)
		checkQuadrature(t, c+" query", quad, queryLevels(q, cfg.PWMUnit, n), amp, cfg.CarrierHz, cfg.SampleRate, 0)

		on := make([]float64, n)
		for i := range on {
			on[i] = 1
		}
		for _, start := range []int{0, n / 8, n - 1} {
			wave, quad := switchedCW(amp, cfg.CarrierHz, cfg.SampleRate, start, n)
			if i := firstBitMismatch(wave, refTraceCarrier(amp, cfg.CarrierHz, cfg.SampleRate, start, n)); i >= 0 {
				t.Fatalf("%v: CW from %d: sample %d differs from RunTrace's replaced loop", c, start, i)
			}
			checkQuadrature(t, c+" CW", quad, on, amp, cfg.CarrierHz, cfg.SampleRate, start)
		}

		for _, f := range []float64{15000, 18000} {
			for _, phase := range []float64{0, 0.7} {
				re, im := dsp.AnalyticSine(amp, f, cfg.SampleRate, phase, n)
				if i := firstBitMismatch(re, refSine(amp, f, cfg.SampleRate, phase, n)); i >= 0 {
					t.Fatalf("%v: %g Hz tone sample %d differs from dsp.Sine", c, f, i)
				}
				w := 2 * math.Pi * f / cfg.SampleRate
				for i, v := range im {
					if want := -(amp * math.Cos(w*float64(i)+phase)); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%v: %g Hz tone quadrature %d is %v, want %v", c, f, i, v, want)
					}
				}
			}
		}
	}
	const fs, total, txStart = 96000.0, 1.6, 0.2
	wave, _ := switchedCW(3.5, 15000, fs, int(txStart*fs), int(total*fs))
	if i := firstBitMismatch(wave, refTraceCarrier(3.5, 15000, fs, int(txStart*fs), int(total*fs))); i >= 0 {
		t.Fatalf("Fig 2 CW: sample %d differs from RunTrace's replaced loop", i)
	}
}

// TestNodeFieldMatchesAnalyticSignal compares the node's complex field,
// irPN.Apply(wave) + j·irPN.Apply(quad), with the FFT analytic signal
// of irPN.Apply(wave) that RunQuery used before. Inside the uplink
// window — from 30 ms past the query end plus the first tap's delay,
// where the reply starts, for as long as the reply lasts — they agree
// to within 1e-3 of the node's carrier amplitude (the carrier there is
// steady, and both are its analytic signal; 7.2e-5 at most on amd64).
// Near the keying edges they differ by up to about 0.45 of it: the FFT
// spreads each edge's transient over the whole 2^17-point record, while
// the keyed quadrature switches with the carrier. The decoder reads
// none of the PWM edges — its gate sits 10 ms past the query end — and
// the carrier's own end comes 30 ms after the reply's.
func TestNodeFieldMatchesAnalyticSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("sample-level exchanges")
	}
	q := frame.Query{Dest: 0x01, Command: frame.CmdPing}
	for _, l := range fieldLinks(t) {
		c := l.name
		res, err := l.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.UplinkBits == nil {
			t.Fatalf("%v: node sent no uplink", c)
		}
		cfg := l.cfg
		tail := l.queryTail()
		wave, quad, err := l.proj.Query(q, cfg.DriveV, cfg.CarrierHz, cfg.PWMUnit, tail)
		if err != nil {
			t.Fatal(err)
		}
		pNode, qNode := l.irPN.Apply(wave), l.irPN.Apply(quad)
		ref := refAnalyticSignal(pNode)

		spb, err := phy.SamplesPerBitFor(cfg.SampleRate, l.node.Bitrate())
		if err != nil {
			t.Fatal(err)
		}
		queryEnd := len(wave) - int(tail*cfg.SampleRate)
		start := queryEnd + int(l.irPN.Taps[0].DelaySeconds*cfg.SampleRate) + int(processingMargin*cfg.SampleRate)
		end := start + len(res.UplinkBits)*spb
		amp := l.incidentAmplitude(cfg.DriveV)
		var inWindow, anywhere float64
		for i := range pNode {
			d := cmplx.Abs(complex(pNode[i], qNode[i])-ref[i]) / amp
			anywhere = max(anywhere, d)
			if start <= i && i < end {
				inWindow = max(inWindow, d)
			}
		}
		t.Logf("%v: field vs FFT analytic signal, max |Δ|/amplitude %.2g in the uplink window [%d, %d), %.2g anywhere",
			c, inWindow, start, end, anywhere)
		if inWindow > 1e-3 {
			t.Errorf("%v: field differs from the FFT analytic signal by %.3g of the carrier amplitude in the uplink window, want ≤ 1e-3", c, inWindow)
		}
		if anywhere > 0.5 {
			t.Errorf("%v: field differs from the FFT analytic signal by %.3g of the carrier amplitude, want ≤ 0.5", c, anywhere)
		}
	}
}
