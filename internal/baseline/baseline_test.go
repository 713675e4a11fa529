package baseline

import (
	"math"
	"testing"
)

func TestEnergyPerBitOrdering(t *testing.T) {
	pab := PaperPAB()
	modem := WHOIClassModem()
	beacon := FishTagBeacon()
	if !(pab.EnergyPerBit() < beacon.EnergyPerBit()) {
		t.Error("PAB should spend less energy per bit than harvest-beacon")
	}
	if !(beacon.EnergyPerBit() < modem.EnergyPerBit()) {
		t.Error("harvest-beacon should spend less per bit than an active modem")
	}
}

func TestPaperHeadlineClaims(t *testing.T) {
	// §2: backscatter decreases transmission energy by "multiple orders
	// of magnitude" vs carrier generation.
	oom, err := OrdersOfMagnitude(WHOIClassModem().EnergyPerBit(), PaperPAB().EnergyPerBit())
	if err != nil {
		t.Fatal(err)
	}
	if oom < 3 {
		t.Errorf("modem vs PAB energy/bit: %.1f orders of magnitude, want ≥ 3", oom)
	}
	// §2: PAB "boosts the network throughput by two to three orders of
	// magnitude" over harvest-then-beacon systems.
	oom, err = OrdersOfMagnitude(PaperPAB().BitrateBps, FishTagBeacon().AverageThroughputBps())
	if err != nil {
		t.Fatal(err)
	}
	if oom < 2 || oom > 4 {
		t.Errorf("PAB vs beacon throughput: %.1f orders of magnitude, want 2–4", oom)
	}
}

func TestHarvestBeaconThroughputFewBps(t *testing.T) {
	// The paper: existing batteryless systems manage "few to tens of
	// bits per second".
	bps := FishTagBeacon().AverageThroughputBps()
	if bps < 1 || bps > 50 {
		t.Errorf("beacon throughput %g bps, want few-to-tens", bps)
	}
}

func TestDegenerateConfigs(t *testing.T) {
	if !math.IsInf(ActiveModem{}.EnergyPerBit(), 1) {
		t.Error("zero-bitrate modem energy/bit should be +Inf")
	}
	if (HarvestBeacon{}).AverageThroughputBps() != 0 {
		t.Error("zero-harvest beacon throughput should be 0")
	}
	if !math.IsInf((HarvestBeacon{BeaconEnergyJ: 1}).EnergyPerBit(), 1) {
		t.Error("zero-bits beacon energy/bit should be +Inf")
	}
	if _, err := OrdersOfMagnitude(0, 1); err == nil {
		t.Error("zero ratio should error")
	}
}

func TestCompareTable(t *testing.T) {
	rows := Compare(PaperPAB(), WHOIClassModem(), FishTagBeacon())
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	if rows[0].System != "pab-backscatter" {
		t.Error("PAB should be first")
	}
	for _, r := range rows {
		if r.EnergyPerBitJ <= 0 || r.ThroughputBps <= 0 {
			t.Errorf("row %+v has non-positive values", r)
		}
	}
}
