package core

import (
	"errors"
	"testing"

	"pab/internal/fault"
	"pab/internal/frame"
	"pab/internal/node"
	"pab/internal/sensors"
)

func TestBuildLadder(t *testing.T) {
	cfg := DefaultLinkConfig() // PWMUnit 480, MaxReplyPayload 16
	ladder := buildLadder(cfg)
	if len(ladder) != 3 {
		t.Fatalf("ladder has %d rungs, want 3", len(ladder))
	}
	if ladder[2].pwmUnit != cfg.PWMUnit || ladder[2].maxPayload != cfg.MaxReplyPayload {
		t.Errorf("fastest rung %+v does not match the configured point", ladder[2])
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i-1].pwmUnit <= ladder[i].pwmUnit {
			t.Errorf("rung %d not slower than rung %d: %+v vs %+v", i-1, i, ladder[i-1], ladder[i])
		}
		if ladder[i-1].maxPayload > ladder[i].maxPayload {
			t.Errorf("rung %d carries more payload than rung %d", i-1, i)
		}
	}
	// Small budgets floor at 4 bytes rather than vanishing.
	cfg.MaxReplyPayload = 6
	for _, op := range buildLadder(cfg) {
		if op.maxPayload < 4 {
			t.Errorf("payload budget %d below the 4-byte floor", op.maxPayload)
		}
	}
}

func newFaultLink(t *testing.T) *Link {
	t.Helper()
	cfg := DefaultLinkConfig()
	n, err := NewPaperNode(0x01, 500, sensors.RoomTank())
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewPaperProjector(cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewLink(cfg, n, proj)
	if err != nil {
		t.Fatal(err)
	}
	return link
}

func TestLinkRateControl(t *testing.T) {
	link := newFaultLink(t)
	base := link.Config()
	if link.level != 2 {
		t.Fatalf("initial level %d, want fastest (2)", link.level)
	}
	if !link.Downshift() {
		t.Fatal("downshift refused at the fastest rung")
	}
	got := link.Config()
	if got.PWMUnit != 2*base.PWMUnit || got.MaxReplyPayload != base.MaxReplyPayload/2 {
		t.Errorf("after downshift: PWMUnit %d payload %d, want %d and %d",
			got.PWMUnit, got.MaxReplyPayload, 2*base.PWMUnit, base.MaxReplyPayload/2)
	}
	link.Downshift()
	if link.Downshift() {
		t.Error("downshift past the most robust rung")
	}
	for link.Upshift() {
	}
	got = link.Config()
	if link.level != 2 || got.PWMUnit != base.PWMUnit || got.MaxReplyPayload != base.MaxReplyPayload {
		t.Errorf("upshifting back did not restore the base point: %+v", got)
	}
}

func TestSetFaultEngineSkewsNodeClock(t *testing.T) {
	link := newFaultLink(t)
	p, err := fault.ByName("drift")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.NewEngine(p, 3, 60, []byte{0x01})
	if err != nil {
		t.Fatal(err)
	}
	nominal := link.Node().Bitrate()
	link.SetFaultEngine(eng)
	ppm := eng.ClockDriftPPM(0x01)
	if ppm == 0 {
		t.Fatal("drift profile drew zero ppm; pick another seed")
	}
	if got, want := link.Node().Bitrate(), nominal*(1+ppm*1e-6); got != want {
		t.Errorf("node bitrate %g, want %g (%g ppm skew)", got, want, ppm)
	}
	link.SetFaultEngine(nil)
	if got := link.Node().Bitrate(); got != nominal {
		t.Errorf("detaching left bitrate %g, want %g", got, nominal)
	}
}

// A powered node with a calm engine attached must exchange normally,
// and the exchange must advance the engine's simulated clock.
func TestRunQueryAdvancesFaultClock(t *testing.T) {
	link := newFaultLink(t)
	if !link.PowerUp(120) {
		t.Fatal("node failed to power up")
	}
	p, _ := fault.ByName("calm")
	eng, err := fault.NewEngine(p, 1, 60, []byte{0x01})
	if err != nil {
		t.Fatal(err)
	}
	link.SetFaultEngine(eng)
	res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoded == nil || res.Decoded.Frame.Source != 0x01 {
		t.Fatal("calm exchange failed to decode")
	}
	if eng.Now() <= 0 {
		t.Error("exchange did not advance the fault clock")
	}
}

// A node the engine reports dead is browned out before the exchange and
// the query is refused with the typed error.
func TestRunQueryNodeOff(t *testing.T) {
	link := newFaultLink(t)
	if !link.PowerUp(120) {
		t.Fatal("node failed to power up")
	}
	p, _ := fault.ByName("brownout") // one dead node: the lowest address
	eng, err := fault.NewEngine(p, 1, 60, []byte{0x01})
	if err != nil {
		t.Fatal(err)
	}
	link.SetFaultEngine(eng)
	// Walk the clock until the death/brownout schedule switches the node
	// off; the profile guarantees this within the horizon.
	for eng.Now() < 60 && !eng.NodeOff(0x01, eng.Now()) {
		eng.Advance(0.5)
	}
	if !eng.NodeOff(0x01, eng.Now()) {
		t.Fatal("brownout profile never switched the node off")
	}
	_, err = link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
	var noff *NodeOffError
	if !errors.As(err, &noff) || noff.Dest != 0x01 {
		t.Fatalf("want *NodeOffError for 0x01, got %v", err)
	}
	if link.Node().State() != node.Off {
		t.Error("node still powered after a forced brownout")
	}
}
