// Package node models a complete battery-free PAB sensor node: the
// recto-piezo harvesting/backscatter front end (paper §3.3.1), the
// supercapacitor power domain behind the LDO (§4.2.1), and the MSP430-
// class microcontroller state machine that decodes downlink queries and
// drives the backscatter switch (§4.2.2).
package node

import (
	"fmt"
	"math"

	"pab/internal/circuit"
	"pab/internal/piezo"
	"pab/internal/rectifier"
)

// RectoPiezo is a transducer whose operating resonance has been tuned by
// electrical matching to the rectifier — the paper's core multiple-access
// mechanism: "recto-piezos are acoustic backscatter nodes whose resonance
// frequency can be tuned through programmable circuit matching".
type RectoPiezo struct {
	Transducer *piezo.Transducer
	Rect       rectifier.Rectifier
	Matching   circuit.LSection
	// TunedHz is the design frequency the matching network targets.
	TunedHz float64
}

// NewRectoPiezo designs the matching network that conjugate-matches the
// transducer to the rectifier input at tunedHz.
func NewRectoPiezo(tr *piezo.Transducer, rect rectifier.Rectifier, tunedHz float64) (*RectoPiezo, error) {
	if tr == nil {
		return nil, fmt.Errorf("node: nil transducer")
	}
	if err := rect.Validate(); err != nil {
		return nil, err
	}
	if tunedHz <= 0 {
		return nil, fmt.Errorf("node: tuned frequency must be positive, got %g", tunedHz)
	}
	zs := tr.Impedance(tunedHz)
	zl := circuit.ResistorZ(rect.InputResistance)
	net, err := circuit.DesignLSection(zs, zl, tunedHz)
	if err != nil {
		return nil, fmt.Errorf("node: matching design at %g Hz: %w", tunedHz, err)
	}
	// Real wound inductors: the loss barely moves the on-frequency match
	// but keeps the front end from acting as a perfect reflector
	// off-resonance, which is what makes concurrent nodes interfere
	// (§3.3.2's collisions).
	net.InductorQ = 40
	return &RectoPiezo{Transducer: tr, Rect: rect, Matching: net, TunedHz: tunedHz}, nil
}

// LoadImpedance returns the impedance the transducer sees looking into
// the matching network terminated by the rectifier, at frequency f. This
// is the absorptive-state termination of the backscatter switch.
func (rp *RectoPiezo) LoadImpedance(f float64) circuit.Impedance {
	return rp.Matching.TransformLoad(circuit.ResistorZ(rp.Rect.InputResistance), f)
}

// HarvestQuality returns the fraction of the transducer's available
// electrical power that reaches the rectifier at frequency f (the match
// quality; 1.0 at the tuned frequency).
func (rp *RectoPiezo) HarvestQuality(f float64) float64 {
	zs := rp.Transducer.Impedance(f)
	return rp.Matching.MatchQuality(zs, circuit.ResistorZ(rp.Rect.InputResistance), f)
}

// DeliveredPower returns the AC power (W) reaching the rectifier input
// for an incident pressure amplitude (Pa) at frequency f in water with
// characteristic impedance rhoC.
func (rp *RectoPiezo) DeliveredPower(pressureAmp, f, rhoC float64) float64 {
	avail := rp.Transducer.AvailableElectricalPower(pressureAmp, f, rhoC)
	return avail * rp.HarvestQuality(f)
}

// RectifiedVoltage returns the unloaded DC voltage at the rectifier
// output for an incident pressure amplitude (Pa) at frequency f in water
// with characteristic impedance rhoC. This is the quantity Fig 3 sweeps.
func (rp *RectoPiezo) RectifiedVoltage(pressureAmp, f, rhoC float64) float64 {
	vin := rp.Rect.InputPeakFromPower(rp.DeliveredPower(pressureAmp, f, rhoC))
	return rp.Rect.OpenCircuitVoltage(vin)
}

// SustainablePower returns the DC power (W) the harvesting chain can
// continuously supply at this operating point — delivered power times
// the rectifier's conversion efficiency. Energy conservation bounds the
// node's average draw to this figure.
func (rp *RectoPiezo) SustainablePower(pressureAmp, f, rhoC float64) float64 {
	return rp.Rect.Efficiency * rp.DeliveredPower(pressureAmp, f, rhoC)
}

// LoadedQ returns the quality factor of the complete harvesting
// resonance (piezo + matching network + rectifier input): the tuned
// frequency divided by the half-power bandwidth of the harvest-quality
// response. It exceeds the ceramic's mechanical Q because the matching
// network's impedance step-up narrows the resonance — the same
// selectivity that separates the Fig 3 channels.
func (rp *RectoPiezo) LoadedQ() float64 {
	peak := rp.HarvestQuality(rp.TunedHz)
	if peak <= 0 {
		return rp.Transducer.Design().MechanicalQ
	}
	half := peak / 2
	step := rp.TunedHz / 2000
	lo, hi := rp.TunedHz, rp.TunedHz
	for f := rp.TunedHz; f > rp.TunedHz/2; f -= step {
		if rp.HarvestQuality(f) < half {
			break
		}
		lo = f
	}
	for f := rp.TunedHz; f < rp.TunedHz*2; f += step {
		if rp.HarvestQuality(f) < half {
			break
		}
		hi = f
	}
	bw := hi - lo
	if bw <= 0 {
		return rp.Transducer.Design().MechanicalQ
	}
	return rp.TunedHz / bw
}

// ResponseTimeConstant returns the settling time of the complete
// front-end resonance, τ = Q_loaded/(π·f0): the reflection cannot slew
// between switch states faster than the stored energy rings down. When
// the FM0 half-bit approaches τ the modulation depth collapses — the
// sharp SNR drop the paper measures beyond 3 kbit/s (Fig 8).
func (rp *RectoPiezo) ResponseTimeConstant() float64 {
	return rp.LoadedQ() / (math.Pi * rp.TunedHz)
}

// ReflectionCoeff returns the complex reflected/incident pressure ratio
// for a switch state at frequency f (magnitude and phase).
func (rp *RectoPiezo) ReflectionCoeff(state piezo.SwitchState, f float64) complex128 {
	return rp.Transducer.StateReflectionCoeff(state, rp.LoadImpedance(f), f)
}
