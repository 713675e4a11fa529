package mac

import (
	"fmt"
	"math"
	"testing"

	"pab/internal/frame"
)

// mockTransport fails the first failCount exchanges of each query, then
// succeeds.
type mockTransport struct {
	failFirst int
	calls     int
	airtime   float64
	addr      byte
}

func (m *mockTransport) Exchange(q frame.Query) (Exchange, error) {
	m.calls++
	if m.calls <= m.failFirst {
		return Exchange{AirtimeSeconds: m.airtime}, fmt.Errorf("mock: CRC failure")
	}
	return Exchange{
		Reply:          &frame.DataFrame{Source: m.addr, Payload: []byte{1, 2, 3}},
		AirtimeSeconds: m.airtime,
		SNRLinear:      10,
	}, nil
}

func TestPollerFirstTry(t *testing.T) {
	tr := &mockTransport{airtime: 0.1, addr: 5}
	p, err := NewPoller(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	df, err := p.Poll(frame.Query{Dest: 5, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	if df.Source != 5 {
		t.Errorf("source %d", df.Source)
	}
	s := p.Stats()
	if s.Queries != 1 || s.Retries != 0 || s.Replies != 1 {
		t.Errorf("stats %+v", s)
	}
	if math.Abs(s.Airtime-0.1) > 1e-12 {
		t.Errorf("airtime %g", s.Airtime)
	}
}

func TestPollerARQRecovers(t *testing.T) {
	tr := &mockTransport{failFirst: 2, airtime: 0.1, addr: 7}
	p, _ := NewPoller(tr, 3)
	df, err := p.ReadSensor(7, frame.SensorPH)
	if err != nil {
		t.Fatal(err)
	}
	if df == nil {
		t.Fatal("nil frame")
	}
	s := p.Stats()
	if s.Retries != 2 || s.Failures != 2 || s.Replies != 1 || s.Queries != 3 {
		t.Errorf("stats %+v", s)
	}
	// Airtime counts every attempt — retransmissions are not free.
	if math.Abs(s.Airtime-0.3) > 1e-12 {
		t.Errorf("airtime %g, want 0.3", s.Airtime)
	}
}

func TestPollerExhaustsRetries(t *testing.T) {
	tr := &mockTransport{failFirst: 100, airtime: 0.1}
	p, _ := NewPoller(tr, 2)
	if _, err := p.Poll(frame.Query{Dest: 1, Command: frame.CmdPing}); err == nil {
		t.Error("should fail after retries exhausted")
	}
	if s := p.Stats(); s.Queries != 3 || s.Replies != 0 {
		t.Errorf("stats %+v", s)
	}
}

func TestPollerValidation(t *testing.T) {
	if _, err := NewPoller(nil, 1); err == nil {
		t.Error("nil transport should error")
	}
	if _, err := NewPoller(&mockTransport{}, -1); err == nil {
		t.Error("negative retries should error")
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Queries: 4, Retries: 1, Replies: 3, PayloadBytes: 30, Airtime: 2}
	if g := s.GoodputBps(); math.Abs(g-120) > 1e-12 {
		t.Errorf("goodput %g, want 120", g)
	}
	if d := s.DeliveryRate(); math.Abs(d-1.0) > 1e-12 {
		t.Errorf("delivery %g, want 1.0", d)
	}
	if (Stats{}).GoodputBps() != 0 || (Stats{}).DeliveryRate() != 0 {
		t.Error("empty stats should be zero")
	}
}

func TestPlanFDMATwoPaperNodes(t *testing.T) {
	// The paper's pair: one node fixed at 15 kHz, the other with two
	// circuits preferring 15 kHz but capable of 18 kHz.
	nodes := []NodeInfo{
		{Addr: 1, ResonanceHz: []float64{15000}},
		{Addr: 2, ResonanceHz: []float64{15000, 18000}},
	}
	plan, err := PlanFDMA(nodes, 12000, 18000, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if plan[0].FrequencyHz != 15000 {
		t.Errorf("node 1 at %g, want 15000", plan[0].FrequencyHz)
	}
	if plan[1].FrequencyHz != 18000 || plan[1].CircuitIndex != 1 {
		t.Errorf("node 2 assignment %+v, want 18 kHz circuit 1", plan[1])
	}
}

func TestPlanFDMATunableNodes(t *testing.T) {
	nodes := []NodeInfo{{Addr: 1}, {Addr: 2}, {Addr: 3}, {Addr: 4}}
	plan, err := PlanFDMA(nodes, 12000, 18000, 1500)
	if err != nil {
		t.Fatal(err)
	}
	// All distinct, all spaced ≥ 1500 Hz.
	for i := range plan {
		for j := i + 1; j < len(plan); j++ {
			if math.Abs(plan[i].FrequencyHz-plan[j].FrequencyHz) < 1500 {
				t.Errorf("assignments %d and %d too close: %g vs %g",
					i, j, plan[i].FrequencyHz, plan[j].FrequencyHz)
			}
		}
		if plan[i].CircuitIndex != -1 {
			t.Errorf("tunable node should have circuit −1")
		}
	}
}

func TestPlanFDMAOverSubscribed(t *testing.T) {
	nodes := make([]NodeInfo, 10)
	for i := range nodes {
		nodes[i].Addr = byte(i)
	}
	if _, err := PlanFDMA(nodes, 14000, 16000, 1500); err == nil {
		t.Error("10 nodes in 2 kHz should fail")
	}
}

func TestPlanFDMAConflictingFixedNodes(t *testing.T) {
	nodes := []NodeInfo{
		{Addr: 1, ResonanceHz: []float64{15000}},
		{Addr: 2, ResonanceHz: []float64{15000}},
	}
	if _, err := PlanFDMA(nodes, 12000, 18000, 1500); err == nil {
		t.Error("two nodes locked to the same frequency should fail")
	}
}

func TestPlanFDMAValidation(t *testing.T) {
	if _, err := PlanFDMA(nil, 18000, 12000, 1500); err == nil {
		t.Error("inverted band should fail")
	}
	if _, err := PlanFDMA(nil, 12000, 18000, 0); err == nil {
		t.Error("zero spacing should fail")
	}
}

func TestNetworkRoundRobin(t *testing.T) {
	transports := map[byte]Transport{
		1: &mockTransport{addr: 1, airtime: 0.1},
		2: &mockTransport{addr: 2, airtime: 0.1, failFirst: 1},
		3: &mockTransport{addr: 3, airtime: 0.1, failFirst: 100},
	}
	net, err := NewNetwork(transports, 1)
	if err != nil {
		t.Fatal(err)
	}
	replies := net.Round(func(addr byte) frame.Query {
		return frame.Query{Dest: addr, Command: frame.CmdPing}
	})
	if replies[1] == nil || replies[1].Source != 1 {
		t.Error("node 1 should reply")
	}
	if replies[2] == nil || replies[2].Source != 2 {
		t.Error("node 2 should recover via ARQ")
	}
	if replies[3] != nil {
		t.Error("node 3 should fail")
	}
	s := net.Stats()
	if s.Replies != 2 {
		t.Errorf("network stats %+v", s)
	}
	if s.Airtime <= 0 {
		t.Error("airtime should accumulate")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, 1); err == nil {
		t.Error("empty transports should error")
	}
	if _, err := NewNetwork(map[byte]Transport{1: &mockTransport{}}, -1); err == nil {
		t.Error("negative retries should propagate")
	}
}

func TestConcurrentThroughputGain(t *testing.T) {
	// The paper's §6.3 headline: two concurrent recto-piezos double the
	// network throughput.
	g, err := ConcurrentThroughputGain(2, 1.0)
	if err != nil || g != 2 {
		t.Errorf("gain %g, want 2", g)
	}
	g, _ = ConcurrentThroughputGain(2, 0.9)
	if math.Abs(g-1.8) > 1e-12 {
		t.Errorf("gain %g, want 1.8", g)
	}
	if _, err := ConcurrentThroughputGain(0, 1); err == nil {
		t.Error("zero concurrency should error")
	}
	if _, err := ConcurrentThroughputGain(2, 0); err == nil {
		t.Error("zero efficiency should error")
	}
}
