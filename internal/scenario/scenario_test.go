package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestNormalizeFillsPaperDefaults(t *testing.T) {
	sp := Spec{}.Normalize()
	if sp.Version != Version {
		t.Errorf("version = %d, want %d", sp.Version, Version)
	}
	if sp.Kind != KindLink {
		t.Errorf("kind = %q, want %q", sp.Kind, KindLink)
	}
	if sp.Seed != 1 {
		t.Errorf("seed = %d, want 1", sp.Seed)
	}
	if len(sp.Nodes) != 1 || sp.Nodes[0].Addr != 0x01 || sp.Nodes[0].BitrateBps != 500 {
		t.Errorf("nodes = %+v, want the single paper node at 500 bps", sp.Nodes)
	}
	if sp.PHY.CarrierHz != 15000 || sp.PHY.SampleRateHz != 96000 || sp.PHY.Coding != "fm0" {
		t.Errorf("phy = %+v, want 15 kHz FM0 at 96 kS/s", sp.PHY)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("normalized zero spec should validate: %v", err)
	}
}

func TestNormalizeDoesNotAliasCallerNodes(t *testing.T) {
	in := Spec{Nodes: []NodeSpec{{PosM: [3]float64{1, 1, 0.5}}}}
	out := in.Normalize()
	out.Nodes[0].BitrateBps = 9999
	if in.Nodes[0].BitrateBps == 9999 {
		t.Fatal("Normalize shares its Nodes slice with the input")
	}
}

func TestHashCanonicalization(t *testing.T) {
	zero, err := Spec{}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Spelling out the defaults must not change the hash.
	explicit := Spec{
		Version: 1,
		Kind:    KindLink,
		Seed:    1,
		Tank:    TankSpec{Preset: TankPoolA},
		Nodes:   []NodeSpec{{Addr: 0x01, PosM: [3]float64{1.2, 1.3, 0.65}, BitrateBps: 500}},
	}
	if h, _ := explicit.Hash(); h != zero {
		t.Errorf("explicit defaults hash %s != zero-spec hash %s", h, zero)
	}
	// The Name label is excluded from the hash.
	if h, _ := (Spec{Name: "relabeled"}).Hash(); h != zero {
		t.Errorf("naming a spec changed its hash")
	}
	// Any physical knob changes the hash.
	if h, _ := (Spec{PHY: PHYSpec{DriveV: 50}}).Hash(); h == zero {
		t.Errorf("changing drive voltage did not change the hash")
	}
	if h, _ := (Spec{Seed: 2}).Hash(); h == zero {
		t.Errorf("changing the seed did not change the hash")
	}
}

func TestCanonicalJSONRoundTrips(t *testing.T) {
	spec := Spec{Kind: KindChaos, Seed: 7, Chaos: ChaosSpec{Profile: "shrimp"}}
	b1, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := back.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("canonical JSON is not a fixed point:\n%s\n%s", b1, b2)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"future version", func(s *Spec) { s.Version = Version + 1 }, "version"},
		{"unknown kind", func(s *Spec) { s.Kind = "quantum" }, "kind"},
		{"node outside tank", func(s *Spec) { s.Nodes[0].PosM = [3]float64{99, 99, 99} }, "outside"},
		{"duplicate address", func(s *Spec) {
			s.Nodes = append(s.Nodes, s.Nodes[0])
		}, "duplicate"},
		{"unknown coding", func(s *Spec) { s.PHY.Coding = "manchester" }, "coding"},
		{"carrier above nyquist", func(s *Spec) { s.PHY.CarrierHz = 96000 }, "rates"},
		{"unknown profile", func(s *Spec) { s.Chaos.Profile = "tsunami" }, "tsunami"},
		{"unknown sensor", func(s *Spec) {
			s.MAC.Command = "read_sensor"
			s.MAC.Sensor = "sonar"
		}, "sensor"},
		{"zero polls", func(s *Spec) { s.MAC.Polls = -1 }, "polls"},
		// The Doppler factor 1 + 2v/c must stay in (0, 2): at v ≤ −c/2 it
		// is not positive, far above +c/2 it shrinks the reply to nothing.
		{"receding at c/2", func(s *Spec) { s.Nodes[0].RadialSpeedMS = -800 }, "radial speed"},
		{"approaching at c/2", func(s *Spec) { s.Nodes[0].RadialSpeedMS = 800 }, "radial speed"},
		{"approaching at 1e6 m/s", func(s *Spec) { s.Nodes[0].RadialSpeedMS = 1e6 }, "radial speed"},
		{"NaN speed", func(s *Spec) { s.Nodes[0].RadialSpeedMS = math.NaN() }, "radial speed"},
		{"infinite speed", func(s *Spec) { s.Nodes[0].RadialSpeedMS = math.Inf(-1) }, "radial speed"},
		{"negative tuning", func(s *Spec) { s.Nodes[0].TunedHz = -5 }, "tuned frequency"},
		{"NaN tuning", func(s *Spec) { s.Nodes[0].TunedHz = math.NaN() }, "tuned frequency"},
		{"infinite tuning", func(s *Spec) { s.Nodes[0].TunedHz = math.Inf(1) }, "tuned frequency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := Spec{}.Normalize()
			tc.mut(&sp)
			err := sp.Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsMobilityAndTuning keeps every speed EXPERIMENTS.md's
// mobility rows run (0–4 m/s, both directions) and the FDMA tunings
// valid, in every tank.
func TestValidateAcceptsMobilityAndTuning(t *testing.T) {
	for _, preset := range []string{TankPoolA, TankPoolB, TankSwimmingPool} {
		for _, v := range []float64{-4, -2, -0.1, 0, 0.1, 2, 4, 700} {
			for _, tuned := range []float64{0, 15000, 18000} {
				sp := Spec{Tank: TankSpec{Preset: preset}}.Normalize()
				sp.Nodes[0].PosM = [3]float64{0.6, 1.3, 0.5} // inside all three tanks
				sp.Nodes[0].RadialSpeedMS = v
				sp.Nodes[0].TunedHz = tuned
				if err := sp.Validate(); err != nil {
					t.Errorf("%s, %g m/s, tuned %g Hz: %v", preset, v, tuned, err)
				}
			}
		}
	}
}

func TestTankCustomDimensions(t *testing.T) {
	tank, err := TankSpec{Preset: TankPoolA, LXM: 10, LYM: 5, DepthM: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tank.LX != 10 || tank.LY != 5 || tank.LZ != 2 {
		t.Errorf("tank = %gx%gx%g, want 10x5x2", tank.LX, tank.LY, tank.LZ)
	}
	if _, err := (TankSpec{Preset: TankPoolA, LXM: 0.1, LYM: 5, DepthM: 2}).Build(); err == nil {
		t.Error("want error for a 0.1 m tank")
	}
}

func TestSweepExpand(t *testing.T) {
	sw := Sweep{
		Base: Spec{Name: "grid", Kind: KindChaos},
		Axes: []Axis{
			{Param: ParamSeed, Values: []float64{1, 2, 3}},
			{Param: ParamMaxAttempts, Values: []float64{2, 4}},
		},
	}
	specs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("expanded %d specs, want 6", len(specs))
	}
	if specs[0].Name != "grid[seed=1 max_attempts=2]" {
		t.Errorf("first name = %q", specs[0].Name)
	}
	// Rightmost axis varies fastest.
	if specs[1].MAC.MaxAttempts != 4 || specs[1].Seed != 1 {
		t.Errorf("second point = seed %d attempts %d, want 1/4", specs[1].Seed, specs[1].MAC.MaxAttempts)
	}
	seen := make(map[string]bool)
	for _, sp := range specs {
		h, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if seen[h] {
			t.Fatalf("duplicate hash in expansion at %q", sp.Name)
		}
		seen[h] = true
	}
}

func TestSweepExpandDeterministic(t *testing.T) {
	sw := Sweep{Axes: []Axis{{Param: ParamDriveV, Values: []float64{50, 150}}}}
	a, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sw.Expand()
	for i := range a {
		ha, _ := a[i].Hash()
		hb, _ := b[i].Hash()
		if ha != hb {
			t.Fatalf("expansion %d not deterministic", i)
		}
	}
}

func TestSweepRejects(t *testing.T) {
	if _, err := (Sweep{Axes: []Axis{{Param: ParamSeed}}}).Expand(); err == nil {
		t.Error("want error for an empty axis")
	}
	if _, err := (Sweep{Axes: []Axis{{Param: "salinity", Values: []float64{1}}}}).Expand(); err == nil {
		t.Error("want error for an unknown param")
	}
	big := make([]float64, 100)
	sw := Sweep{Axes: []Axis{
		{Param: ParamSeed, Values: big},
		{Param: ParamDriveV, Values: big},
	}}
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("want cap error for a 10000-point grid, got %v", err)
	}
}

func TestRunChaosDeterministic(t *testing.T) {
	spec := Spec{Kind: KindChaos, Seed: 7, MAC: MACSpec{DurationS: 60}, Chaos: ChaosSpec{Profile: "shrimp"}}
	r1, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Chaos == nil || r1.Link != nil {
		t.Fatal("chaos run should fill exactly the Chaos report")
	}
	r2, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if !bytes.Equal(b1, b2) {
		t.Error("equal chaos specs produced different results")
	}
	if h := r1.Headline(); h["adaptive_goodput_bps"] <= 0 {
		t.Errorf("headline = %v, want positive adaptive goodput", h)
	}
}

func TestRunLinkDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sample-level link run")
	}
	spec := Spec{} // the paper's single-node link, one ping poll
	r1, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Link == nil {
		t.Fatal("link run should fill the Link report")
	}
	if !r1.Link.PoweredAll || r1.Link.Replies != 1 || r1.Link.DeliveredBytes == 0 {
		t.Errorf("default link run should deliver one clean reply: %+v", r1.Link)
	}
	r2, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if !bytes.Equal(b1, b2) {
		t.Error("equal link specs produced different results")
	}
}

func TestRunHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Spec{}); err == nil {
		t.Fatal("want context error from a cancelled run")
	}
}

func TestRunRejectsTunedBatteryCombo(t *testing.T) {
	spec := Spec{Nodes: []NodeSpec{{
		Addr: 1, PosM: [3]float64{1.2, 1.3, 0.65}, TunedHz: 15000, BatteryJ: 10,
	}}}
	if _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("want error for tuned_hz + battery_j")
	}
}

// TestDecodeRoundTrip: Decode is the WAL-replay entry point — it must
// reproduce exactly the id the scheduler computed at submit time, and
// refuse payloads that would replay into an invalid job.
func TestDecodeRoundTrip(t *testing.T) {
	sp := Spec{Kind: KindChaos, Seed: 42, MAC: MACSpec{DurationS: 5}}
	norm := sp.Normalize()
	want, err := norm.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Decode from the raw (un-normalized) encoding, the shape a WAL
	// submit record stores.
	raw, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	got, id, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if id != want {
		t.Errorf("Decode id = %s, want %s", id, want)
	}
	if got.Version != norm.Version || got.Kind != norm.Kind || got.Seed != norm.Seed {
		t.Errorf("Decode spec = %+v, want normalized %+v", got, norm)
	}

	// Field order must not matter: the id is content-addressed.
	reordered := []byte(`{"seed":42,"mac":{"duration_s":5},"kind":"chaos"}`)
	if _, id2, err := Decode(reordered); err != nil || id2 != want {
		t.Errorf("reordered Decode = (%s, %v), want (%s, nil)", id2, err, want)
	}
}

func TestDecodeRejects(t *testing.T) {
	for name, raw := range map[string]string{
		"garbage":      `{not json`,
		"bad kind":     `{"kind":"quantum"}`,
		"bad duration": `{"kind":"chaos","mac":{"duration_s":-3}}`,
	} {
		if _, _, err := Decode([]byte(raw)); err == nil {
			t.Errorf("Decode(%s) accepted %q", name, raw)
		}
	}
}
