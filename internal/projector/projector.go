// Package projector models the downlink transmitter: an in-house
// transducer driven through a power amplifier from a PC audio interface
// (paper §5.1a). It synthesises the continuous-wave, PWM-keyed query and
// multi-tone FDMA waveforms the experiments use, expressed as pressure
// referenced to 1 m from the source.
package projector

import (
	"fmt"

	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/piezo"
)

// Projector is a transmit transducer plus amplifier.
type Projector struct {
	Transducer *piezo.Transducer
	// MaxDriveV is the amplifier's peak output voltage (the paper's XLi
	// 2500 drives up to ≈350 V through a transformer in Fig 9's sweep).
	MaxDriveV float64
	// SampleRate of generated waveforms.
	SampleRate float64
}

// New validates and constructs a projector.
func New(tr *piezo.Transducer, maxDriveV, fs float64) (*Projector, error) {
	if tr == nil {
		return nil, fmt.Errorf("projector: nil transducer")
	}
	if maxDriveV <= 0 {
		return nil, fmt.Errorf("projector: max drive must be positive, got %g", maxDriveV)
	}
	if fs <= 0 {
		return nil, fmt.Errorf("projector: sample rate must be positive, got %g", fs)
	}
	return &Projector{Transducer: tr, MaxDriveV: maxDriveV, SampleRate: fs}, nil
}

// clampDrive limits the request to the amplifier's capability.
func (p *Projector) clampDrive(v float64) float64 {
	if v > p.MaxDriveV {
		return p.MaxDriveV
	}
	if v < 0 {
		return 0
	}
	return v
}

// PressureAmplitude returns the source pressure amplitude (Pa at 1 m)
// for a drive voltage at frequency f.
func (p *Projector) PressureAmplitude(driveV, f float64) float64 {
	return p.Transducer.TransmitPressure(p.clampDrive(driveV), f)
}

// CW synthesises a continuous wave of duration seconds at frequency f,
// as pressure at 1 m.
func (p *Projector) CW(driveV, f, duration float64) []float64 {
	n := int(duration * p.SampleRate)
	amp := p.PressureAmplitude(driveV, f)
	return dsp.Sine(amp, f, p.SampleRate, 0, n)
}

// Query synthesises the PWM-keyed downlink query waveform: carrier at f
// on/off keyed with the preamble plus the marshalled query bits, followed
// by a continuous carrier tail of tailSeconds during which the node
// backscatters its reply and harvests (§3.2: PWM "provides ample
// opportunities for energy harvesting").
//
// It returns both rails of the keyed carrier's analytic signal: the
// waveform level·amp·sin θ and its quadrature −level·amp·cos θ. The
// keying level changes only every PWM unit, far slower than the
// carrier, so the quadrature is the waveform's Hilbert transform away
// from the keying edges, and any linear channel carries the pair to a
// complex field whose product with a reflection coefficient is the
// reflected narrowband wave.
func (p *Projector) Query(q frame.Query, driveV, f float64, unitSamples int, tailSeconds float64) (wave, quad []float64, err error) {
	pwm, err := phy.NewPWM(unitSamples)
	if err != nil {
		return nil, nil, err
	}
	bits := append(append([]phy.Bit{}, phy.PreambleBits...), frame.Bits(q.Marshal())...)
	// Lead-in silence lets the node's envelope detector settle so the
	// first pulse width is measured cleanly. The oscillator runs through
	// it, so the carrier phase counts from the first sample.
	lead := 4 * unitSamples
	tail := int(tailSeconds * p.SampleRate)
	amp := p.PressureAmplitude(driveV, f)
	osc := dsp.NewOscillator(f, p.SampleRate)
	n := lead + pwm.EncodedLength(bits) + tail
	wave, quad = make([]float64, n), make([]float64, n)
	for range lead {
		osc.Next()
	}
	i := lead
	pwm.Keying(bits, func(level float64, samples int) {
		for end := i + samples; i < end; i++ {
			sin, cos := osc.NextSincos()
			wave[i] = level * (amp * sin)
			quad[i] = -level * (amp * cos)
		}
	})
	for ; i < n; i++ {
		sin, cos := osc.NextSincos()
		wave[i] = amp * sin
		quad[i] = -amp * cos
	}
	return wave, quad, nil
}

// Tone describes one component of a multi-tone downlink.
type Tone struct {
	Frequency float64
	DriveV    float64
}

// MultiTone synthesises the sum of CW carriers (the dual-frequency
// downlink that activates both recto-piezos in §6.3). Each tone is
// clamped to the amplifier limit independently; real amplifiers share
// headroom, which the caller models by choosing drives that sum within
// MaxDriveV.
func (p *Projector) MultiTone(tones []Tone, duration float64) ([]float64, error) {
	if len(tones) == 0 {
		return nil, fmt.Errorf("projector: no tones")
	}
	n := int(duration * p.SampleRate)
	out := make([]float64, n)
	for _, tone := range tones {
		amp := p.PressureAmplitude(tone.DriveV, tone.Frequency)
		w := dsp.Sine(amp, tone.Frequency, p.SampleRate, 0, n)
		dsp.Add(out, w)
	}
	return out, nil
}

// QueryDuration returns the on-air duration in seconds of a PWM query
// with the given unit size (worst case: all-ones bits).
func (p *Projector) QueryDuration(unitSamples int) float64 {
	if p.SampleRate <= 0 {
		return 0
	}
	bits := len(phy.PreambleBits) + frame.QueryBitLength
	return float64(bits*3*unitSamples) / p.SampleRate
}
