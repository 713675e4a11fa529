package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"pab/internal/channel"
	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/sensors"
)

// The tests in this file pin the carriers RunQuery, RunTrace and
// RunConcurrent synthesize without rendering them: the field at a node
// and the direct path to the hydrophone are a carrier times its
// envelope through the response (channel.ImpulseResponse.Carry).
// TestKeyedFieldMatchesApply holds both to Apply over the keyed
// carrier's rails, materialized sample by sample; the field must also
// match the FFT analytic signal RunQuery once took of its in-phase rail
// wherever the receiver reads the reply.

// keyedCase is a keyed carrier as a synthesis path builds it, and the
// responses the path carries it through.
type keyedCase struct {
	name  string
	f, fs float64
	amp   float64
	// on is the sample the carrier's phase counts from: the carrier is
	// level(i)·amp·sin 2πf(i−on)/fs.
	on int
	// levels is the keying, whose values are the levels; env is the
	// envelope the synthesis carries, the levels times its amplitude.
	levels, env dsp.Steps
	irs         []*channel.ImpulseResponse
}

// keyedCases returns the carriers of the synthesis golden exchanges
// (RunQuery's keyed downlink through irPN and irPH in both pools, at
// the three bitrates and under drift and a fault engine), Fig 2's
// switched CW (RunTrace) and Fig 10's two tones (RunConcurrent).
func keyedCases(t *testing.T) []keyedCase {
	t.Helper()
	q := frame.Query{Dest: 0x01, Command: frame.CmdPing}
	var out []keyedCase
	for _, g := range synthGoldens {
		l := g.c.poweredLink(t)
		cfg := l.cfg
		keying, amp, err := l.proj.Query(q, cfg.DriveV, cfg.CarrierHz, cfg.PWMUnit, l.queryTail())
		if err != nil {
			t.Fatal(err)
		}
		env := make(dsp.Steps, len(keying))
		for i, s := range keying {
			env[i] = dsp.Step{At: s.At, V: s.V * complex(amp, 0)}
		}
		out = append(out, keyedCase{
			name: fmt.Sprintf("query %v fault=%q", g.c.equivCase, g.c.fault),
			f:    cfg.CarrierHz, fs: cfg.SampleRate, amp: amp,
			levels: keying, env: env, irs: []*channel.ImpulseResponse{l.irPN, l.irPH},
		})
	}

	l := defaultPoweredLink(t, 500)
	cfg := l.cfg
	const total, txStart = 1.6, 0.2
	on, n := int(txStart*cfg.SampleRate), int(total*cfg.SampleRate)
	amp := l.proj.PressureAmplitude(cfg.DriveV, cfg.CarrierHz)
	out = append(out, keyedCase{
		name: "Fig 2 switched CW", f: cfg.CarrierHz, fs: cfg.SampleRate, amp: amp, on: on,
		levels: dsp.Steps{{At: on, V: 1}, {At: n}},
		env:    switchedOn(amp, 2*math.Pi*cfg.CarrierHz/cfg.SampleRate, on, n),
		irs:    []*channel.ImpulseResponse{l.irPN, l.irPH},
	})

	cc := DefaultConcurrentConfig()
	opts := channel.Options{MaxOrder: cc.ChannelOrder, MinGain: 0.02, CarrierHz: (cc.Carriers[0] + cc.Carriers[1]) / 2}
	irs := make([]*channel.ImpulseResponse, 3)
	for k, dst := range []channel.Vec3{cc.NodePos[0], cc.NodePos[1], cc.HydrophonePos} {
		var err error
		if irs[k], err = cc.Tank.Response(cc.ProjectorPos, dst, cc.SampleRate, opts); err != nil {
			t.Fatal(err)
		}
	}
	proj, err := NewPaperProjector(cc.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	spb, err := phy.SamplesPerBitFor(cc.SampleRate, cc.BitrateBps)
	if err != nil {
		t.Fatal(err)
	}
	tones := int(0.05*cc.SampleRate)*2 + (2*len(phy.PreambleBits)+cc.PayloadBits)*spb
	for _, f := range cc.Carriers {
		amp := proj.PressureAmplitude(cc.DriveV, f)
		out = append(out, keyedCase{
			name: fmt.Sprintf("Fig 10 %g Hz tone", f), f: f, fs: cc.SampleRate, amp: amp,
			levels: dsp.Steps{{At: 0, V: 1}, {At: tones}},
			env:    dsp.Steps{{At: 0, V: complex(amp, 0)}, {At: tones}},
			irs:    irs,
		})
	}
	return out
}

// TestKeyedFieldMatchesApply materializes each keyed carrier's rails,
// level(i)·amp·sin θ and −level(i)·amp·cos θ with θ from math.Sincos at
// every sample, renders them through each response with Apply, and
// requires the carried envelope times the carrier to give both rails —
// the field at a node, and so the direct path — to within 1e-9 of the
// rendered rails' peak at every output sample, and to be exactly 0
// wherever no tap of the response sees the carrier on.
func TestKeyedFieldMatchesApply(t *testing.T) {
	if testing.Short() {
		t.Skip("sample-level carriers")
	}
	for _, c := range keyedCases(t) {
		n := c.levels.End()
		level := make([]float64, n)
		wave, quad := make([]float64, n), make([]float64, n)
		w := 2 * math.Pi * c.f / c.fs
		for k, s := range c.levels {
			end := n
			if k+1 < len(c.levels) {
				end = c.levels[k+1].At
			}
			for i := s.At; i < end; i++ {
				level[i] = real(s.V)
				sin, cos := math.Sincos(w * float64(i-c.on))
				wave[i], quad[i] = level[i]*(c.amp*sin), -level[i]*(c.amp*cos)
			}
		}
		osc := dsp.NewPhasor(c.f, c.fs)
		for r, ir := range c.irs {
			re, im := ir.Apply(wave), ir.Apply(quad)
			u := make([]complex128, len(re))
			osc.Modulate(u, 0, ir.Carry(c.env, osc.Omega()))
			peak := 0.0
			for i := range re {
				peak = max(peak, math.Abs(re[i]), math.Abs(im[i]))
			}
			worst, silent := 0.0, 0
			for j, v := range u {
				// The field is −j times the carried carrier: its rails are
				// Im(v) and −Re(v).
				d := max(math.Abs(imag(v)-re[j]), math.Abs(-real(v)-im[j]))
				if d > 1e-9*peak {
					t.Fatalf("%s, response %d: output %d is %v, Apply gives %v (%.3g of the peak %.4g)",
						c.name, r, j, complex(imag(v), -real(v)), complex(re[j], im[j]), d/peak, peak)
				}
				worst = max(worst, d)
				if unseen(ir, level, j) {
					silent++
					if v != 0 {
						t.Fatalf("%s, response %d: output %d is %v where no tap sees the carrier", c.name, r, j, v)
					}
				}
			}
			t.Logf("%s, response %d (%d taps): max |Δ| %.2g of the peak, %d silent outputs of %d",
				c.name, r, len(ir.Taps), worst/peak, silent, len(u))
		}
	}
}

// unseen reports whether every interpolation term of ir with a nonzero
// gain reads a sample where the keying is off at output j.
func unseen(ir *channel.ImpulseResponse, level []float64, j int) bool {
	on := func(i int) bool { return i >= 0 && i < len(level) && level[i] != 0 }
	for _, tap := range ir.Taps {
		d := tap.DelaySeconds * ir.SampleRate
		i0 := int(math.Floor(d))
		frac := d - float64(i0)
		if (frac != 1 && on(j-i0)) || (frac != 0 && on(j-i0-1)) {
			return false
		}
	}
	return true
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

// TestNodeFieldMatchesAnalyticSignal compares the node's complex field,
// the carrier times its envelope through irPN, with the FFT analytic
// signal of the field's in-phase rail that RunQuery used before. Inside
// the uplink window — from 30 ms past the query end plus the first
// tap's delay, where the reply starts, for as long as the reply lasts —
// they agree to within 1e-3 of the node's carrier amplitude (the
// carrier there is steady, and both are its analytic signal; 7.2e-5 at
// most on amd64). Near the keying edges they differ by up to about 0.45
// of it: the FFT spreads each edge's transient over the whole
// 2^17-point record, while the keyed envelope switches with the
// carrier. The decoder reads none of the PWM edges — its gate sits
// 10 ms past the query end — and the carrier's own end comes 30 ms
// after the reply's.
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
		keying, amp, err := l.proj.Query(q, cfg.DriveV, cfg.CarrierHz, cfg.PWMUnit, tail)
		if err != nil {
			t.Fatal(err)
		}
		for i := range keying {
			keying[i].V *= complex(amp, 0)
		}
		osc := dsp.NewPhasor(cfg.CarrierHz, cfg.SampleRate)
		u := make([]complex128, keying.End()+l.irPN.Spread())
		osc.Modulate(u, 0, l.irPN.Carry(keying, osc.Omega()))
		pNode := make([]float64, len(u))
		for i, v := range u {
			pNode[i] = imag(v)
		}
		ref := refAnalyticSignal(pNode)

		spb, err := phy.SamplesPerBitFor(cfg.SampleRate, l.node.Bitrate())
		if err != nil {
			t.Fatal(err)
		}
		queryEnd := keying.End() - int(tail*cfg.SampleRate)
		start := queryEnd + int(l.irPN.Taps[0].DelaySeconds*cfg.SampleRate) + int(processingMargin*cfg.SampleRate)
		end := start + len(res.UplinkBits)*spb
		incident := l.incidentAmplitude(cfg.DriveV)
		var inWindow, anywhere float64
		for i, v := range u {
			d := cmplx.Abs(complex(imag(v), -real(v))-ref[i]) / incident
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
