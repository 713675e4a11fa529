package core

import (
	"testing"

	"pab/internal/frame"
	"pab/internal/node"
)

func TestFDMANetworkEndToEnd(t *testing.T) {
	cfg := DefaultFDMANetworkConfig()
	net, err := NewFDMANetwork(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Channel plan: three distinct channels, properly spaced.
	var carriers []float64
	for _, spec := range cfg.Nodes {
		carriers = append(carriers, net.Link(spec.Addr).Config().CarrierHz)
	}
	if len(carriers) != 3 {
		t.Fatalf("carriers %v", carriers)
	}
	for i := range carriers {
		for j := i + 1; j < len(carriers); j++ {
			d := carriers[i] - carriers[j]
			if d < 0 {
				d = -d
			}
			if d < cfg.SpacingHz {
				t.Errorf("channels %g and %g too close", carriers[i], carriers[j])
			}
		}
	}
	// All three battery-free nodes charge from their own carriers.
	if err := net.PowerUpAll(120); err != nil {
		t.Fatal(err)
	}
	// One polling round reaches every node.
	replies := net.Round(func(addr byte) frame.Query {
		return frame.Query{Dest: addr, Command: frame.CmdReadSensor, Param: byte(frame.SensorTemperature)}
	})
	for _, spec := range cfg.Nodes {
		df := replies[spec.Addr]
		if df == nil {
			t.Fatalf("node %02x did not reply", spec.Addr)
		}
		id, val, err := node.ParseSensorPayload(df.Payload)
		if err != nil {
			t.Fatalf("node %02x payload: %v", spec.Addr, err)
		}
		if id != frame.SensorTemperature || val < 21 || val > 23 {
			t.Errorf("node %02x: %v = %g", spec.Addr, id, val)
		}
	}
	s := net.Stats()
	if s.Replies != 3 || s.Airtime <= 0 {
		t.Errorf("stats %+v", s)
	}
	if s.GoodputBps() <= 0 {
		t.Error("network goodput should be positive")
	}
}

func TestFDMANetworkValidation(t *testing.T) {
	cfg := DefaultFDMANetworkConfig()
	cfg.Nodes = nil
	if _, err := NewFDMANetwork(cfg, 1); err == nil {
		t.Error("no nodes should error")
	}
	// Over-subscribed band.
	cfg = DefaultFDMANetworkConfig()
	cfg.BandHigh = cfg.BandLow + 100
	if _, err := NewFDMANetwork(cfg, 1); err == nil {
		t.Error("over-subscribed band should error")
	}
}
