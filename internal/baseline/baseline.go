// Package baseline implements the comparison systems the paper positions
// PAB against: conventional active acoustic modems, whose carrier
// generation consumes "multiple orders of magnitude more energy than
// backscatter communication" (§2), and batteryless harvest-then-beacon
// systems that bank harvested energy until they can emit a short acoustic
// beacon, capping their average throughput at "few to tens of bits per
// second" (§2).
package baseline

import (
	"fmt"
	"math"
)

// ActiveModem is a conventional underwater acoustic modem that generates
// its own carrier.
type ActiveModem struct {
	// TransmitPowerW is the electrical power while transmitting (the
	// paper cites "few hundred Watts" for low-power acoustic
	// transmitters, §3.2; compact research modems run tens of watts).
	TransmitPowerW float64
	// BitrateBps is the modem's link rate.
	BitrateBps float64
	// IdlePowerW is the listening draw.
	IdlePowerW float64
}

// WHOIClassModem returns a compact research modem operating point.
func WHOIClassModem() ActiveModem {
	return ActiveModem{TransmitPowerW: 50, BitrateBps: 5000, IdlePowerW: 0.2}
}

// EnergyPerBit returns joules per transmitted bit.
func (m ActiveModem) EnergyPerBit() float64 {
	if m.BitrateBps <= 0 {
		return math.Inf(1)
	}
	return m.TransmitPowerW / m.BitrateBps
}

// HarvestBeacon is a batteryless node that banks harvested energy and
// emits short active beacons when it has stored enough (e.g. the
// fish-movement harvester of §2's citation [40]).
type HarvestBeacon struct {
	// HarvestPowerW is the average harvested power.
	HarvestPowerW float64
	// BeaconEnergyJ is the cost of one beacon.
	BeaconEnergyJ float64
	// BitsPerBeacon is the payload of one beacon.
	BitsPerBeacon float64
}

// FishTagBeacon returns the operating point of an energy-harvesting
// acoustic fish tag: ~1 mW harvested, millijoule-scale beacons.
func FishTagBeacon() HarvestBeacon {
	return HarvestBeacon{HarvestPowerW: 1e-3, BeaconEnergyJ: 5e-3, BitsPerBeacon: 32}
}

// AverageThroughputBps returns the steady-state average bitrate: the
// node beacons whenever it has banked BeaconEnergyJ.
func (h HarvestBeacon) AverageThroughputBps() float64 {
	if h.BeaconEnergyJ <= 0 || h.HarvestPowerW <= 0 {
		return 0
	}
	interval := h.BeaconEnergyJ / h.HarvestPowerW // seconds between beacons
	return h.BitsPerBeacon / interval
}

// EnergyPerBit returns joules per delivered bit.
func (h HarvestBeacon) EnergyPerBit() float64 {
	if h.BitsPerBeacon <= 0 {
		return math.Inf(1)
	}
	return h.BeaconEnergyJ / h.BitsPerBeacon
}

// PABPoint is PAB's measured operating point for comparison.
type PABPoint struct {
	PowerW     float64 // backscattering draw (Fig 11: ≈500 µW)
	BitrateBps float64 // sustained uplink rate (Fig 8: up to 3 kbps)
}

// PaperPAB returns the headline PAB operating point.
func PaperPAB() PABPoint {
	return PABPoint{PowerW: 500e-6, BitrateBps: 3000}
}

// EnergyPerBit returns joules per backscattered bit.
func (p PABPoint) EnergyPerBit() float64 {
	if p.BitrateBps <= 0 {
		return math.Inf(1)
	}
	return p.PowerW / p.BitrateBps
}

// Row is one line of the comparison table.
type Row struct {
	System        string
	EnergyPerBitJ float64
	ThroughputBps float64
}

// Compare returns the comparison table for the three systems.
func Compare(pab PABPoint, modem ActiveModem, beacon HarvestBeacon) []Row {
	return []Row{
		{"pab-backscatter", pab.EnergyPerBit(), pab.BitrateBps},
		{"active-modem", modem.EnergyPerBit(), modem.BitrateBps},
		{"harvest-beacon", beacon.EnergyPerBit(), beacon.AverageThroughputBps()},
	}
}

// OrdersOfMagnitude returns log10(a/b), the headline "orders of
// magnitude" comparison.
func OrdersOfMagnitude(a, b float64) (float64, error) {
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("baseline: ratios need positive values, got %g/%g", a, b)
	}
	return math.Log10(a / b), nil
}
