package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pab/internal/node"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"baseline", "fig10", "fig11", "fig2", "fig3", "fig7", "fig8", "fig9", "mobility", "scaling", "sensing"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("experiments: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, name := range want {
		if desc, ok := Describe(name); !ok || desc == "" {
			t.Errorf("%s has no description", name)
		}
	}
	if _, ok := Describe("nope"); ok {
		t.Error("unknown experiment should not describe")
	}
	if err := Run("nope", &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestFig3PaperShape(t *testing.T) {
	rows, err := Fig3(DefaultFig3Config())
	if err != nil {
		t.Fatal(err)
	}
	// Find peaks and threshold bands.
	var peak15, peak18, f15, f18 float64
	for _, r := range rows {
		if r.V15kHz > peak15 {
			peak15, f15 = r.V15kHz, r.FrequencyHz
		}
		if r.V18kHz > peak18 {
			peak18, f18 = r.V18kHz, r.FrequencyHz
		}
	}
	// The 15 kHz recto-piezo peaks near 15 kHz at ≈4 V (paper: "reaches
	// its maximum of 4 V around the resonant frequency of 15 kHz").
	if math.Abs(f15-15000) > 400 {
		t.Errorf("15 kHz node peaks at %g", f15)
	}
	if peak15 < 3.5 || peak15 > 5.5 {
		t.Errorf("15 kHz peak %g V, want ≈4", peak15)
	}
	// The 18 kHz recto-piezo peaks near 18 kHz and crosses the 2.5 V
	// power-up line over a narrower band (paper: "rises above the
	// threshold around the new resonance frequency ... bandwidth of
	// 1.5 kHz").
	if math.Abs(f18-18000) > 700 {
		t.Errorf("18 kHz node peaks at %g", f18)
	}
	if peak18 < 2.5 {
		t.Errorf("18 kHz peak %g V never crosses the power-up threshold", peak18)
	}
	band := func(sel func(Fig3Row) float64) float64 {
		lo, hi := 0.0, 0.0
		for _, r := range rows {
			if sel(r) >= 2.5 {
				if lo == 0 {
					lo = r.FrequencyHz
				}
				hi = r.FrequencyHz
			}
		}
		return hi - lo
	}
	b15 := band(func(r Fig3Row) float64 { return r.V15kHz })
	b18 := band(func(r Fig3Row) float64 { return r.V18kHz })
	if b15 <= 0 || b18 <= 0 {
		t.Fatalf("bands: %g, %g", b15, b18)
	}
	if b18 >= b15 {
		t.Errorf("18 kHz band (%g) should be narrower than 15 kHz band (%g)", b18, b15)
	}
	// Complementary responses: where one powers up, the other does not.
	for _, r := range rows {
		if r.V15kHz >= 2.5 && r.V18kHz >= 2.5 {
			t.Errorf("bands overlap at %g Hz", r.FrequencyHz)
		}
	}
}

func TestFig3Validation(t *testing.T) {
	bad := DefaultFig3Config()
	bad.StepHz = 0
	if _, err := Fig3(bad); err == nil {
		t.Error("zero step should error")
	}
}

func TestFig7PaperShape(t *testing.T) {
	cfg := Fig7Config{
		SNRsdB:     []float64{0, 2, 4, 6, 8, 10, 12},
		PacketBits: 500,
		Packets:    40,
		Seed:       7,
	}
	rows, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone non-increasing BER with SNR.
	for i := 1; i < len(rows); i++ {
		if rows[i].BER > rows[i-1].BER*1.5 { // allow small statistical jitter
			t.Errorf("BER rose: %g @%g dB → %g @%g dB",
				rows[i-1].BER, rows[i-1].SNRdB, rows[i].BER, rows[i].SNRdB)
		}
	}
	// Decodable around 2 dB (BER below ~10%), floor by 12 dB.
	for _, r := range rows {
		if r.SNRdB == 2 && r.BER > 0.15 {
			t.Errorf("BER at 2 dB = %g, want < 0.15", r.BER)
		}
		if r.SNRdB == 12 && r.BER > 1e-3 {
			t.Errorf("BER at 12 dB = %g, want near floor", r.BER)
		}
	}
}

func TestFig7Validation(t *testing.T) {
	if _, err := Fig7(Fig7Config{PacketBits: 1, Packets: 1}); err == nil {
		t.Error("tiny packets should error")
	}
}

func TestFig11PaperNumbers(t *testing.T) {
	rows := Fig11()
	if rows[0].Mode != "idle" || math.Abs(rows[0].PowerUW-124) > 0.5 {
		t.Errorf("idle row %+v, want 124 µW (Fig 11)", rows[0])
	}
	for _, r := range rows[1:] {
		if r.Mode != "backscatter" {
			t.Errorf("unexpected mode %s", r.Mode)
		}
		if r.PowerUW < 450 || r.PowerUW > 550 {
			t.Errorf("backscatter power %g µW at %g bps, want ≈500", r.PowerUW, r.BitrateBps)
		}
	}
	// Power grows with bitrate (switching cost).
	if rows[len(rows)-1].PowerUW <= rows[1].PowerUW {
		t.Error("power should grow with bitrate")
	}
}

func TestFig8PaperShape(t *testing.T) {
	// The full default sweep: 10 bitrates × 5 placements of the whole
	// link. Skip under -short like the other heavy runners.
	if testing.Short() {
		t.Skip("full fig8 sweep")
	}
	cfg := DefaultFig8Config()
	rows, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Bitrates) {
		t.Fatalf("%d rows for %d bitrates", len(rows), len(cfg.Bitrates))
	}
	mcu := node.PaperMCU()
	for i, r := range rows {
		// Each row reports the clock-divider-quantised rate the node
		// actually ran at (the paper's footnote 13).
		want, err := mcu.AchievableBitrate(cfg.Bitrates[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.BitrateBps != want {
			t.Errorf("row %d rate %g, want achievable %g for requested %g", i, r.BitrateBps, want, cfg.Bitrates[i])
		}
		if r.Trials != cfg.Trials {
			t.Errorf("%g bit/s: %d trials, want %d", r.BitrateBps, r.Trials, cfg.Trials)
		}
		// SNR declines with bitrate, within one trial std of noise.
		if i > 0 {
			prev := rows[i-1]
			if r.MeanSNRdB > prev.MeanSNRdB+prev.StdSNRdB {
				t.Errorf("SNR rose beyond trial noise: %.1f dB @%g → %.1f dB @%g",
					prev.MeanSNRdB, prev.BitrateBps, r.MeanSNRdB, r.BitrateBps)
			}
		}
		// Usable through ≈3 kbit/s.
		if r.BitrateBps <= 3000 && r.MeanSNRdB <= 3 {
			t.Errorf("%g bit/s at %.1f dB, want > 3 dB below 3 kbit/s", r.BitrateBps, r.MeanSNRdB)
		}
	}
	// Collapse at ≈5 kbit/s: the recto-piezo cannot slew that fast.
	first, last := rows[0], rows[len(rows)-1]
	if math.Round(first.BitrateBps*10) != 999 || math.Round(last.BitrateBps) != 4681 {
		t.Fatalf("sweep spans %g–%g bit/s, want 99.9–4681", first.BitrateBps, last.BitrateBps)
	}
	if last.MeanSNRdB >= 0 {
		t.Errorf("4681 bit/s at %.1f dB, want below 0 dB", last.MeanSNRdB)
	}
	if first.MeanSNRdB-last.MeanSNRdB < 20 {
		t.Errorf("collapse only %.1f dB (%.1f → %.1f), want ≥ 20 dB",
			first.MeanSNRdB-last.MeanSNRdB, first.MeanSNRdB, last.MeanSNRdB)
	}
}

func TestFig9PaperShape(t *testing.T) {
	cfg := Fig9Config{DrivesV: []float64{50, 150, 350}, StepM: 0.5}
	rows, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Range grows with voltage in both pools.
	for i := 1; i < len(rows); i++ {
		if rows[i].PoolAMax < rows[i-1].PoolAMax {
			t.Errorf("pool A range fell: %+v", rows)
		}
		if rows[i].PoolBMax < rows[i-1].PoolBMax {
			t.Errorf("pool B range fell: %+v", rows)
		}
	}
	last := rows[len(rows)-1]
	// Pool B reaches farther than Pool A at full drive (corridor
	// focusing, §6.2) and the maxima land in the paper's range bands.
	if last.PoolBMax <= last.PoolAMax {
		t.Errorf("pool B (%g m) should beat pool A (%g m) at 350 V", last.PoolBMax, last.PoolAMax)
	}
	if last.PoolAMax < 2.5 || last.PoolAMax > 5 {
		t.Errorf("pool A max %g m, want ~3–5 (paper caps at 5)", last.PoolAMax)
	}
	if last.PoolBMax < 6 || last.PoolBMax > 10 {
		t.Errorf("pool B max %g m, want ~7–10 (paper caps at 10)", last.PoolBMax)
	}
}

func TestFig9Validation(t *testing.T) {
	if _, err := Fig9(Fig9Config{StepM: 0.5}); err == nil {
		t.Error("no drives should error")
	}
	if _, err := Fig9(Fig9Config{DrivesV: []float64{100}, StepM: 0}); err == nil {
		t.Error("zero step should error")
	}
}

func TestFig10PaperShape(t *testing.T) {
	rows, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d locations, want 8", len(rows))
	}
	below := 0
	for _, r := range rows {
		for k := 0; k < 2; k++ {
			before, after := r.BeforeDB[k], r.AfterDB[k]
			// Zero-forcing projection lifts every stream clear of the
			// collision and decodes it error-free.
			if after <= before || after <= 3 {
				t.Errorf("location %d node %d: SINR %.1f → %.1f dB, want a rise to > 3 dB",
					r.Location, k+1, before, after)
			}
			if r.BERAfter[k] != 0 {
				t.Errorf("location %d node %d: BER after projection %g, want 0", r.Location, k+1, r.BERAfter[k])
			}
			if before < 3 {
				below++
			}
		}
	}
	// Before projection the collision buries almost every stream; two
	// placements leave node 1 partly clear (location-dependent SINR).
	if below != 14 {
		t.Errorf("%d of 16 streams below 3 dB before projection, want 14", below)
	}
}

func TestSensingMatchesEnvironment(t *testing.T) {
	rows, err := Sensing()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 sensors, got %d", len(rows))
	}
	for _, r := range rows {
		if r.BER != 0 {
			t.Errorf("%s: uplink BER %g", r.Sensor, r.BER)
		}
		tol := 0.02 * math.Max(math.Abs(r.Expected), 1)
		if math.Abs(r.Value-r.Expected) > tol {
			t.Errorf("%s: %g, want %g (paper §6.5 correctness)", r.Sensor, r.Value, r.Expected)
		}
	}
}

func TestRunnersEmitTSV(t *testing.T) {
	// The cheap runners end to end (heavier ones are exercised above and
	// in the benchmarks).
	for _, name := range []string{"fig3", "fig11", "baseline"} {
		var buf bytes.Buffer
		if err := Run(name, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 2 {
			t.Errorf("%s produced no rows", name)
		}
		cols := strings.Count(lines[0], "\t") + 1
		for i, ln := range lines {
			if strings.Count(ln, "\t")+1 != cols {
				t.Errorf("%s line %d has ragged columns", name, i)
			}
		}
	}
}

func TestMobilityExtension(t *testing.T) {
	rows, err := Mobility(MobilityConfig{SpeedsMS: []float64{0, 0.5, 2, 6}, BitrateBps: 500, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Static and slow-drift nodes decode cleanly.
	if !rows[0].Decodable || rows[0].BER != 0 {
		t.Errorf("static node should decode: %+v", rows[0])
	}
	if !rows[1].Decodable {
		t.Errorf("0.5 m/s drift should decode with axis tracking: %+v", rows[1])
	}
	// Fast motion eventually defeats the offline receiver (the §8 open
	// challenge): by 6 m/s the bit clock skew walks the boundaries off.
	if rows[3].Decodable && rows[3].BER == 0 {
		t.Errorf("6 m/s should defeat the receiver: %+v", rows[3])
	}
}

func TestMobilityValidation(t *testing.T) {
	if _, err := Mobility(MobilityConfig{}); err == nil {
		t.Error("empty config should error")
	}
}

func TestAllRunnersEndToEnd(t *testing.T) {
	// Every registered experiment produces a well-formed TSV through the
	// dispatcher — the exact path the pabsim CLI and benches use. Heavy
	// generators make this a multi-second test; skip under -short.
	if testing.Short() {
		t.Skip("heavy end-to-end runners")
	}
	for _, name := range Names() {
		var buf bytes.Buffer
		if err := Run(name, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 2 {
			t.Errorf("%s produced no rows", name)
		}
		cols := strings.Count(lines[0], "\t") + 1
		if cols < 2 {
			t.Errorf("%s header has %d columns", name, cols)
		}
		for i, ln := range lines {
			if strings.Count(ln, "\t")+1 != cols {
				t.Errorf("%s line %d ragged", name, i)
			}
		}
	}
}

func TestScalingExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy multi-network sweep")
	}
	rows, err := Scaling(DefaultScalingConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	// FDMA scales across the usable band: 1–3 channels all operate.
	for _, r := range rows[:3] {
		if !r.AllNodesAlive || r.Replies != r.Channels {
			t.Errorf("%d channels should fully operate: %+v", r.Channels, r)
		}
	}
	// The fourth channel falls off the transducer's usable band — the
	// §8 scaling limit ("limited by the efficiency and bandwidth of the
	// piezoelectric transducer design").
	if rows[3].AllNodesAlive {
		t.Error("the 12.4 kHz channel should exceed the transducer's usable band")
	}
	// Aggregate airtime grows with fleet size (round-robin TDMA cost).
	if rows[2].AirtimeS <= rows[0].AirtimeS {
		t.Error("three channels should use more airtime than one")
	}
}

func TestScalingValidation(t *testing.T) {
	if _, err := Scaling(ScalingConfig{MaxChannels: 0, SpacingHz: 1500}); err == nil {
		t.Error("zero channels should error")
	}
	if _, err := Scaling(ScalingConfig{MaxChannels: 2, SpacingHz: 0}); err == nil {
		t.Error("zero spacing should error")
	}
}
