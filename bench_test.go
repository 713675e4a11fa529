// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (§6), plus the baseline comparison and ablation benches for
// the design choices DESIGN.md calls out. Each bench regenerates its
// figure's data through the same code path as `pabsim -experiment <id>`
// and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises and times the entire reproduction.
package pab

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"pab/internal/baseline"
	"pab/internal/channel"
	"pab/internal/core"
	"pab/internal/dsp"
	"pab/internal/experiments"
	"pab/internal/frame"
	"pab/internal/mac"
	"pab/internal/node"
	"pab/internal/phy"
	"pab/internal/piezo"
	"pab/internal/projector"
	"pab/internal/rectifier"
	"pab/internal/sensors"
)

// BenchmarkFig2BackscatterTrace regenerates the §3.2 "Testing the
// Waters" demodulated amplitude trace (Fig 2).
func BenchmarkFig2BackscatterTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkFig3RectoPiezo regenerates the rectified-voltage-vs-frequency
// sweep for the two recto-piezos (Fig 3) and reports the 15 kHz peak.
func BenchmarkFig3RectoPiezo(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(experiments.DefaultFig3Config())
		if err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, r := range rows {
			if r.V15kHz > peak {
				peak = r.V15kHz
			}
		}
	}
	b.ReportMetric(peak, "peakV")
}

// BenchmarkFig7BERSNR regenerates the BER–SNR curve (Fig 7) at a reduced
// packet budget and reports the BER at 2 dB (the paper's decode
// threshold).
func BenchmarkFig7BERSNR(b *testing.B) {
	cfg := experiments.Fig7Config{
		SNRsdB:     []float64{0, 2, 4, 6, 8, 10, 12},
		PacketBits: 500,
		Packets:    40,
		Seed:       7,
	}
	var berAt2 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.SNRdB == 2 {
				berAt2 = r.BER
			}
		}
	}
	b.ReportMetric(berAt2, "ber@2dB")
}

// BenchmarkFig8SNRBitrate regenerates the SNR-vs-bitrate sweep (Fig 8)
// at a reduced trial count and reports the SNR spread between the
// slowest and fastest rates.
func BenchmarkFig8SNRBitrate(b *testing.B) {
	cfg := experiments.Fig8Config{
		Bitrates: []float64{100, 1000, 3000},
		Trials:   1,
		NoiseRMS: 10,
		Seed:     8,
	}
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		spread = rows[0].MeanSNRdB - rows[len(rows)-1].MeanSNRdB
	}
	b.ReportMetric(spread, "dB(100bps−3kbps)")
}

// BenchmarkFig9PowerUpRange regenerates the power-up-range-vs-voltage
// sweep (Fig 9) and reports Pool B's maximum at full drive.
func BenchmarkFig9PowerUpRange(b *testing.B) {
	cfg := experiments.Fig9Config{DrivesV: []float64{50, 150, 350}, StepM: 0.5}
	var bMax float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bMax = rows[len(rows)-1].PoolBMax
	}
	b.ReportMetric(bMax, "poolB_m@350V")
}

// BenchmarkFig10Collisions regenerates one location of the concurrent
// collision-decoding experiment (Fig 10) and reports the mean SINR gain
// from zero-forcing.
func BenchmarkFig10Collisions(b *testing.B) {
	cfg := core.DefaultConcurrentConfig()
	var gain float64
	for i := 0; i < b.N; i++ {
		nodes, proj := buildConcurrentPair(b, cfg)
		res, err := core.RunConcurrent(cfg, nodes, proj)
		if err != nil {
			b.Fatal(err)
		}
		after := res.SINRAfterDB()
		before := res.SINRBeforeDB()
		gain = (after[0] - before[0] + after[1] - before[1]) / 2
	}
	b.ReportMetric(gain, "dB_zf_gain")
}

// BenchmarkFig11Power regenerates the power-consumption table (Fig 11)
// and reports the idle draw in µW.
func BenchmarkFig11Power(b *testing.B) {
	var idleUW float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig11()
		idleUW = rows[0].PowerUW
	}
	b.ReportMetric(idleUW, "idle_µW")
}

// BenchmarkSensingApplications regenerates the §6.5 sensing demo (pH,
// temperature, pressure over backscatter).
func BenchmarkSensingApplications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sensing()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("missing sensors")
		}
	}
}

// BenchmarkBaselineComparison regenerates the energy-per-bit comparison
// (§2/§3.2) and reports PAB's advantage over an active modem in orders
// of magnitude.
func BenchmarkBaselineComparison(b *testing.B) {
	var oom float64
	for i := 0; i < b.N; i++ {
		var err error
		oom, err = baseline.OrdersOfMagnitude(
			baseline.WHOIClassModem().EnergyPerBit(),
			baseline.PaperPAB().EnergyPerBit())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(oom, "orders_of_magnitude")
}

// BenchmarkExperimentRunnerAll drives every experiment through the same
// dispatcher the pabsim CLI uses, discarding output (end-to-end cost of
// the full evaluation).
func BenchmarkExperimentRunnerFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Run("fig3", io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches — the design choices DESIGN.md calls out
// ---------------------------------------------------------------------------

// BenchmarkAblationMLvsThresholdDecoder compares the ML sequence decoder
// against the naive threshold slicer at moderate noise, reporting the
// error ratio (slicer errors / ML errors; > 1 means ML wins).
func BenchmarkAblationMLvsThresholdDecoder(b *testing.B) {
	m, err := phy.NewFM0(8)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(13))
		mlErrs, thErrs := 1, 1 // +1 smoothing
		for trial := 0; trial < 40; trial++ {
			bits := make([]phy.Bit, 80)
			for j := range bits {
				bits[j] = phy.Bit(rng.Intn(2))
			}
			wave, _ := m.Encode(bits, 1)
			for j := range wave {
				wave[j] += rng.NormFloat64() * 0.9
			}
			ml, _ := m.DecodeFrom(wave, len(bits), 1)
			th := m.ThresholdDecode(wave, len(bits))
			mlErrs += phy.CountBitErrors(bits, ml)
			thErrs += phy.CountBitErrors(bits, th)
		}
		ratio = float64(thErrs) / float64(mlErrs)
	}
	b.ReportMetric(ratio, "slicer/ml_errors")
}

// BenchmarkAblationZeroForcing compares collision decoding with and
// without the MIMO projection (the paper's before/after, as a BER
// improvement factor).
func BenchmarkAblationZeroForcing(b *testing.B) {
	cfg := core.DefaultConcurrentConfig()
	var improvement float64
	for i := 0; i < b.N; i++ {
		nodes, proj := buildConcurrentPair(b, cfg)
		res, err := core.RunConcurrent(cfg, nodes, proj)
		if err != nil {
			b.Fatal(err)
		}
		before := (res.BERBefore[0] + res.BERBefore[1]) / 2
		after := (res.BERAfter[0] + res.BERAfter[1]) / 2
		improvement = (before + 1e-3) / (after + 1e-3)
	}
	b.ReportMetric(improvement, "ber_improvement")
}

// BenchmarkAblationAirBackedVsPotted compares harvested power of the
// paper's air-backed transducer against a fully potted one (§4.1).
func BenchmarkAblationAirBackedVsPotted(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		air, err := piezo.New(piezo.PaperCylinder())
		if err != nil {
			b.Fatal(err)
		}
		potted, err := piezo.New(piezo.FullyPottedCylinder())
		if err != nil {
			b.Fatal(err)
		}
		rhoC := piezo.RhoC(1482, false)
		pa := air.AvailableElectricalPower(1000, air.ResonanceHz(), rhoC)
		pp := potted.AvailableElectricalPower(1000, potted.ResonanceHz(), rhoC)
		ratio = pa / pp
	}
	b.ReportMetric(ratio, "airbacked/potted_power")
}

// BenchmarkAblationRectifierStages compares rectified voltage across
// multiplier depths (the "multi-stage to passively amplify" choice,
// §4.2.1).
func BenchmarkAblationRectifierStages(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		one := rectifier.Rectifier{Stages: 1, DiodeDrop: 0.25, StageResistance: 1500, InputResistance: 15000, Efficiency: 0.7}
		three := one
		three.Stages = 3
		vin := one.InputPeakFromPower(100e-6)
		gain = three.OpenCircuitVoltage(vin) / one.OpenCircuitVoltage(vin)
	}
	b.ReportMetric(gain, "3stage/1stage_voltage")
}

// BenchmarkAblationMatchedVsShortedAbsorb quantifies the §3.2 trade-off
// around the absorptive-state termination. The conjugate match maximises
// *harvested energy*; interestingly it does not maximise modulation
// depth — a mismatched load reflects with a rotated phase, and the
// complex swing |Γ_short − Γ_mismatched| can exceed |Γ_short − 0|
// (ratios below 1 here record exactly that). The paper's choice is an
// energy/SNR compromise, not an SNR optimum.
func BenchmarkAblationMatchedVsShortedAbsorb(b *testing.B) {
	tr, err := piezo.New(piezo.PaperCylinder())
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		f0 := tr.ResonanceHz()
		matched := tr.ModulationDepth(tr.ConjugateImpedance(f0), f0)
		// Mismatched absorb state: 10× the conjugate resistance.
		z := tr.ConjugateImpedance(f0)
		mismatched := tr.ModulationDepth(complex(real(z)*10, imag(z)), f0)
		ratio = matched / mismatched
	}
	b.ReportMetric(ratio, "matched/mismatched_depth")
}

// BenchmarkLinkExchange measures one complete interrogation cycle
// (downlink query, sample-level synthesis, uplink decode) at 500, 1000
// and 2000 bit/s — the simulator's core inner loop. The uplink budget
// shrinks with the bitrate, so the three sizes span the recordings
// every experiment and pabd link job synthesizes.
func BenchmarkLinkExchange(b *testing.B) {
	for _, bitrate := range []float64{500, 1000, 2000} {
		b.Run(fmt.Sprintf("%gbps", bitrate), func(b *testing.B) {
			link := newBenchLink(b, bitrate)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
				if err != nil {
					b.Fatal(err)
				}
				if res.Decoded == nil {
					b.Fatal("no decode")
				}
			}
		})
	}
}

// BenchmarkTelemetryOverheadRunLink bounds the cost of the telemetry
// layer on the simulator's inner loop: it times RunQuery with the
// default registry enabled and with instrumentation switched to no-ops
// (SetEnabled(false)), and asserts the enabled path is within 2%.
// Min-of-R timing over fixed-size batches makes the comparison robust
// to scheduler noise even under -benchtime=1x.
func BenchmarkTelemetryOverheadRunLink(b *testing.B) {
	link := newBenchLink(b, 1000)
	reg := Telemetry()
	wasEnabled := reg.Enabled()
	defer reg.SetEnabled(wasEnabled)

	const batch = 1    // RunQuery calls per timed sample
	const samples = 14 // timed sample pairs; the per-mode minimum is kept
	run := func() {
		res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
		if err != nil {
			b.Fatal(err)
		}
		if res.Decoded == nil {
			b.Fatal("no decode")
		}
	}
	sample := func(enabled bool) time.Duration {
		reg.SetEnabled(enabled)
		// Exclude the collector from the timed region: GC cycles cost
		// milliseconds and trigger on allocation thresholds, so a tiny
		// allocation difference between modes would otherwise be
		// amplified into a spurious whole-cycle difference. Each region
		// starts from a clean heap and runs with GC paused.
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		start := time.Now()
		for k := 0; k < batch; k++ {
			run()
		}
		d := time.Since(start)
		debug.SetGCPercent(gcPercent)
		return d
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Warm caches and the allocator outside the timed samples.
		sample(false)
		sample(true)
		// Interleave the modes and keep each mode's *minimum*: scheduler
		// preemption, page faults and background load only ever add
		// time, so the per-mode floor is the least-disturbed observation
		// of the true cost, and interleaving exposes both modes to the
		// same machine conditions.
		on := time.Duration(math.MaxInt64)
		off := time.Duration(math.MaxInt64)
		for s := 0; s < samples; s++ {
			if d := sample(false); d < off {
				off = d
			}
			if d := sample(true); d < on {
				on = d
			}
		}
		overhead := float64(on-off) / float64(off) * 100
		b.ReportMetric(overhead, "overhead_%")
		if overhead > 2.0 {
			b.Fatalf("telemetry overhead %.2f%% exceeds 2%% budget (on=%v off=%v)", overhead, on, off)
		}
	}
}

// BenchmarkProfOverheadDecode bounds the cost of the stage profiler on
// the decode chain — the densest StageTimer coverage in the repo (all
// five stages fire per decode, sync many times). It decodes a fixed
// exchange recording with the default registry enabled and disabled and
// asserts the enabled path stays within the 2% observability budget.
// Same min-of-R interleaved methodology as the RunLink bench above.
func BenchmarkProfOverheadDecode(b *testing.B) {
	link := newBenchLink(b, 1000)
	res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
	if err != nil {
		b.Fatal(err)
	}
	if res.Decoded == nil || len(res.Decoded.Bits) == 0 {
		b.Fatal("no decode")
	}
	recv := link.Receiver()
	carrier := link.Config().CarrierHz
	bitrate := link.Node().Bitrate()
	reg := Telemetry()
	wasEnabled := reg.Enabled()
	defer reg.SetEnabled(wasEnabled)

	const samples = 14
	run := func() {
		if _, err := recv.DecodeUplink(res.Recording, carrier, bitrate, res.DecodeGate); err != nil {
			b.Fatal(err)
		}
	}
	sample := func(enabled bool) time.Duration {
		reg.SetEnabled(enabled)
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		start := time.Now()
		run()
		d := time.Since(start)
		debug.SetGCPercent(gcPercent)
		return d
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample(false)
		sample(true)
		on := time.Duration(math.MaxInt64)
		off := time.Duration(math.MaxInt64)
		for s := 0; s < samples; s++ {
			if d := sample(false); d < off {
				off = d
			}
			if d := sample(true); d < on {
				on = d
			}
		}
		overhead := float64(on-off) / float64(off) * 100
		b.ReportMetric(overhead, "overhead_%")
		if overhead > 2.0 {
			b.Fatalf("profiler overhead %.2f%% exceeds 2%% budget (on=%v off=%v)", overhead, on, off)
		}
	}
}

// BenchmarkChannelResponse measures the image-method impulse response
// computation for Pool A at order 3.
func BenchmarkChannelResponse(b *testing.B) {
	tank := channel.PoolA()
	opts := channel.Options{MaxOrder: 3, MinGain: 0.01, CarrierHz: 15000}
	src := channel.Vec3{X: 0.5, Y: 0.5, Z: 0.65}
	dst := channel.Vec3{X: 2.4, Y: 3.1, Z: 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tank.Response(src, dst, 96000, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func newBenchLink(b *testing.B, bitrate float64) *core.Link {
	b.Helper()
	cfg := core.DefaultLinkConfig()
	n, err := core.NewPaperNode(0x01, bitrate, sensors.RoomTank())
	if err != nil {
		b.Fatal(err)
	}
	proj, err := core.NewPaperProjector(cfg.SampleRate)
	if err != nil {
		b.Fatal(err)
	}
	link, err := core.NewLink(cfg, n, proj)
	if err != nil {
		b.Fatal(err)
	}
	if err := link.EnsurePowered(120); err != nil {
		b.Fatal(err)
	}
	return link
}

func buildConcurrentPair(b *testing.B, cfg core.ConcurrentConfig) ([2]*node.Node, *projector.Projector) {
	b.Helper()
	var nodes [2]*node.Node
	rhoC := piezo.RhoC(cfg.Tank.Water.SoundSpeed(), false)
	for k := 0; k < 2; k++ {
		n, err := core.NewPaperNode(byte(k+1), cfg.BitrateBps, sensors.RoomTank())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 200000 && n.State() == node.Off; i++ {
			n.HarvestStep(3000, cfg.Carriers[k], rhoC, 1e-3)
		}
		if n.State() == node.Off {
			b.Fatalf("node %d failed to power", k)
		}
		nodes[k] = n
	}
	if _, err := nodes[1].HandleQuery(frame.Query{Dest: 2, Command: frame.CmdSwitchResonance, Param: 1}); err != nil {
		b.Fatal(err)
	}
	proj, err := core.NewPaperProjector(cfg.SampleRate)
	if err != nil {
		b.Fatal(err)
	}
	return nodes, proj
}

// ---------------------------------------------------------------------------
// Extension benches (paper §1 / §8 future-work features)
// ---------------------------------------------------------------------------

// BenchmarkExtensionBatteryAssist compares operating reach: the farthest
// Pool-B range where a battery-free node can run versus where a
// battery-assisted node can still be decoded (the §1 hybrid argument).
// Reported metric: the range extension factor.
func BenchmarkExtensionBatteryAssist(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultLinkConfig()
		cfg.Tank = channel.PoolB()
		cfg.DriveV = 60
		cfg.ProjectorPos = channel.Vec3{X: 0.6, Y: 0.4, Z: 0.5}
		cfg.HydrophonePos = channel.Vec3{X: 0.8, Y: 0.6, Z: 0.5}

		freeMax, assistedMax := 0.25, 0.25
		for d := 9.0; d >= 0.25; d -= 0.25 {
			cfg.NodePos = channel.Vec3{X: 0.6, Y: 0.4 + d, Z: 0.5}
			n, err := core.NewPaperNode(1, 200, sensors.RoomTank())
			if err != nil {
				b.Fatal(err)
			}
			proj, err := core.NewPaperProjector(cfg.SampleRate)
			if err != nil {
				b.Fatal(err)
			}
			link, err := core.NewLink(cfg, n, proj)
			if err != nil {
				continue
			}
			if link.CanEverPowerUp() {
				freeMax = d
				break
			}
		}
		// The assisted node is limited only by uplink decodability; probe
		// the far end.
		for d := 9.0; d >= freeMax; d -= 1.0 {
			cfg.NodePos = channel.Vec3{X: 0.6, Y: 0.4 + d, Z: 0.5}
			n, err := core.NewBatteryAssistedNode(2, 200, 2000, sensors.RoomTank())
			if err != nil {
				b.Fatal(err)
			}
			proj, err := core.NewPaperProjector(cfg.SampleRate)
			if err != nil {
				b.Fatal(err)
			}
			link, err := core.NewLink(cfg, n, proj)
			if err != nil {
				continue
			}
			if !link.PowerUp(5) {
				continue
			}
			res, err := link.RunQuery(frame.Query{Dest: 2, Command: frame.CmdPing})
			if err == nil && res.Decoded != nil && res.UplinkBER == 0 {
				assistedMax = d
				break
			}
		}
		factor = assistedMax / freeMax
	}
	b.ReportMetric(factor, "range_extension")
}

// BenchmarkExtensionFDMANetwork deploys the three-node FDMA fleet and
// runs one polling round, reporting network goodput.
func BenchmarkExtensionFDMANetwork(b *testing.B) {
	var goodput float64
	for i := 0; i < b.N; i++ {
		net, err := core.NewFDMANetwork(core.DefaultFDMANetworkConfig(), 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := net.PowerUpAll(120); err != nil {
			b.Fatal(err)
		}
		replies := net.Round(func(addr byte) frame.Query {
			return frame.Query{Dest: addr, Command: frame.CmdPing}
		})
		for addr, df := range replies {
			if df == nil {
				b.Fatalf("node %02x silent", addr)
			}
		}
		goodput = net.Stats().GoodputBps()
	}
	b.ReportMetric(goodput, "net_goodput_bps")
}

// BenchmarkExtensionCDMABandwidth verifies footnote 4's bandwidth
// argument across user counts, reporting the CDMA/FDMA spectrum ratio
// at 8 users (1.0 = the paper's claim).
func BenchmarkExtensionCDMABandwidth(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		fdma, cdma, err := phy.MultipleAccessBandwidth(8, 500)
		if err != nil {
			b.Fatal(err)
		}
		ratio = cdma / fdma
	}
	b.ReportMetric(ratio, "cdma/fdma_bandwidth")
}

// BenchmarkAblationFM0vsManchester compares the two bi-phase codes the
// paper names (§3.2) at equal AWGN, reporting the error ratio
// (FM0 errors / Manchester errors). Manchester holds a small raw-BER
// edge (independent per-bit decisions); FM0 wins on self-clocking.
func BenchmarkAblationFM0vsManchester(b *testing.B) {
	fm0, err := phy.NewFM0(8)
	if err != nil {
		b.Fatal(err)
	}
	man, err := phy.NewManchester(8)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(17))
		fmErrs, manErrs := 1, 1
		for trial := 0; trial < 40; trial++ {
			bits := make([]phy.Bit, 100)
			for j := range bits {
				bits[j] = phy.Bit(rng.Intn(2))
			}
			w1, _ := fm0.Encode(bits, 1)
			w2 := man.Encode(bits)
			for j := range w1 {
				w1[j] += rng.NormFloat64()
				w2[j] += rng.NormFloat64()
			}
			got1, _ := fm0.DecodeFrom(w1, len(bits), 1)
			fmErrs += phy.CountBitErrors(bits, got1)
			manErrs += phy.CountBitErrors(bits, man.Decode(w2, len(bits)))
		}
		ratio = float64(fmErrs) / float64(manErrs)
	}
	b.ReportMetric(ratio, "fm0/manchester_errors")
}

// BenchmarkAblationLMSEqualizer quantifies what an LMS equalizer claws
// back from a two-tap ISI channel (the high-bitrate reverberation
// limiter of Fig 8), reporting the decision-error improvement factor.
func BenchmarkAblationLMSEqualizer(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(8))
		train := make([]float64, 1500)
		for j := range train {
			train[j] = float64(rng.Intn(2))*2 - 1
		}
		isi := func(x []float64) []float64 {
			out := make([]float64, len(x))
			copy(out, x)
			for j := 2; j < len(x); j++ {
				out[j] += 0.65 * x[j-2]
			}
			return out
		}
		eq, err := dsp.NewLMSEqualizer(13, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eq.Train(isi(train), train, 40); err != nil {
			b.Fatal(err)
		}
		data := make([]float64, 4000)
		for j := range data {
			data[j] = float64(rng.Intn(2))*2 - 1
		}
		rx := isi(data)
		for j := range rx {
			rx[j] += rng.NormFloat64() * 0.3
		}
		eqd := eq.Equalize(rx)
		rawErrs, eqErrs := 1, 1
		for j := range data {
			if (rx[j] > 0) != (data[j] > 0) {
				rawErrs++
			}
			if (eqd[j] > 0) != (data[j] > 0) {
				eqErrs++
			}
		}
		improvement = float64(rawErrs) / float64(eqErrs)
	}
	b.ReportMetric(improvement, "error_reduction")
}

// BenchmarkExtensionInventory measures the slotted-ALOHA discovery of a
// 64-node fleet, reporting slot efficiency (optimum 1/e).
func BenchmarkExtensionInventory(b *testing.B) {
	nodes := make([]byte, 64)
	for i := range nodes {
		nodes[i] = byte(i + 1)
	}
	var eff float64
	for i := 0; i < b.N; i++ {
		res, err := mac.Inventory(nodes, mac.DefaultInventoryConfig(), rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		eff = res.Efficiency()
	}
	b.ReportMetric(eff, "slot_efficiency")
}

// BenchmarkAblationCoherentVsEnvelope quantifies the receiver's
// modulation-axis projection against plain envelope detection on the
// same recording. Multipath routinely rotates the backscatter phasor
// into quadrature with the direct carrier, where the envelope sees
// almost nothing — the projection is what makes arbitrary placements
// decodable. Reported metric: coherent/envelope measured-SNR ratio (dB).
func BenchmarkAblationCoherentVsEnvelope(b *testing.B) {
	// Use a placement whose backscatter arrives near quadrature with the
	// direct carrier (a common multipath outcome): envelope detection
	// collapses there while the projection decodes cleanly.
	cfg := core.DefaultLinkConfig()
	cfg.NodePos = channel.Vec3{X: cfg.NodePos.X + 0.08, Y: cfg.NodePos.Y + 0.15, Z: cfg.NodePos.Z + 0.12}
	n, err := core.NewPaperNode(0x01, 500, sensors.RoomTank())
	if err != nil {
		b.Fatal(err)
	}
	proj, err := core.NewPaperProjector(cfg.SampleRate)
	if err != nil {
		b.Fatal(err)
	}
	link, err := core.NewLink(cfg, n, proj)
	if err != nil {
		b.Fatal(err)
	}
	if err := link.EnsurePowered(120); err != nil {
		b.Fatal(err)
	}
	res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
	if err != nil {
		b.Fatal(err)
	}
	if res.Decoded == nil {
		b.Fatal("no decode")
	}
	r := link.Receiver()
	var gainDB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		volts, err := r.Hydro.Record(res.Recording)
		if err != nil {
			b.Fatal(err)
		}
		bb, err := r.Demodulate(volts, cfg.CarrierHz, link.Node().Bitrate())
		if err != nil {
			b.Fatal(err)
		}
		spb, _ := phy.SamplesPerBitFor(cfg.SampleRate, link.Node().Bitrate())
		fm0, _ := phy.NewFM0(spb)
		idx := res.Decoded.Sync.Index
		allBits := append(append([]phy.Bit{}, phy.PreambleBits...), res.Decoded.Bits...)
		env := dsp.Envelope(bb)
		envSNR := phy.MeasureSNR(env[idx:], allBits, fm0)
		coh := core.CoherentWaveAround(bb, idx, idx+len(allBits)*spb)
		cohSNR := phy.MeasureSNR(coh[idx:], allBits, fm0)
		if envSNR <= 0 {
			envSNR = 1e-6
		}
		gainDB = 10 * math.Log10(cohSNR/envSNR)
	}
	b.ReportMetric(gainDB, "coherent_gain_dB")
}
