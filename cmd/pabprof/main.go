// Command pabprof benchmarks the uplink receive chain stage by stage
// and writes BENCH_decode.json — the per-stage latency baseline the
// ROADMAP's raw-speed campaign is measured against.
//
// It synthesises one full reader↔node exchange (the same recording
// cmd/pabwave's -kind exchange exports), then repeatedly decodes the
// recording through Receiver.DecodeUplink with stage timers and
// allocation tracking on, and reports exact p50/p99/mean wall time,
// ops/sec, samples/sec and bytes-allocated-per-op for every pipeline
// stage (record → downconvert → filter → sync → decode) plus the full
// chain. Each stage row also carries its calls and milliseconds per
// chain, and unattributed_share is the part of the mean chain that no
// stage covers.
//
//	pabprof -o BENCH_decode.json                 # measure and write
//	pabprof -runs 20 -check BENCH_decode.json    # CI regression gate
//	pabprof -trace-out trace.json                # Perfetto trace of the run
//
// In -check mode the fresh measurement is compared against the given
// baseline: every baseline stage must still report invocations and
// samples and make exactly the baseline's calls per chain, no stage's
// ms_per_chain may regress more than -max-regress× (times under
// -floor-ms are floored first so sub-noise stages cannot trip the
// gate), and no stage's alloc_bytes_per_op may regress more than
// -max-alloc-regress× (values under 256 B are floored so allocator
// noise cannot trip it; 0 disables the gate). Violations go to stderr
// and the exit code is 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"pab/internal/cli"
	"pab/internal/core"
	"pab/internal/frame"
	"pab/internal/prof"
	"pab/internal/sensors"
	"pab/internal/telemetry"
)

func main() {
	os.Exit(realMain())
}

// maxRuns keeps every stage record inside the telemetry span ring
// (4096 entries). One decode of the default 107k-sample recording
// files 49 stage records — 15 record blocks, 7 downconvert and 8
// filter calls, 18 syncs and a decode — and the run its own span.
const maxRuns = 80

func realMain() int {
	out := flag.String("o", "BENCH_decode.json", "output report path (empty: stdout only)")
	runs := flag.Int("runs", 60, fmt.Sprintf("measured decode iterations (max %d)", maxRuns))
	warmup := flag.Int("warmup", 5, "unmeasured warm-up iterations")
	bitrate := flag.Float64("bitrate", 500, "backscatter bitrate (bit/s)")
	check := flag.String("check", "", "baseline BENCH_decode.json to gate against (exit 1 on regression)")
	maxRegress := flag.Float64("max-regress", 2, "max allowed per-stage ms_per_chain regression factor in -check mode")
	floorMS := flag.Float64("floor-ms", 0.05, "floor (ms) applied to ms_per_chain before the regression ratio")
	maxAllocRegress := flag.Float64("max-alloc-regress", 1.5, "max allowed per-stage alloc_bytes_per_op regression factor in -check mode (0 disables the gate)")
	var tf cli.TelemetryFlags
	tf.Register()
	flag.Parse()
	if *runs <= 0 || *runs > maxRuns || *warmup < 0 || *bitrate <= 0 || flag.NArg() > 0 {
		return cli.Usage()
	}
	if code := tf.Start("pabprof"); code != cli.ExitOK {
		return code
	}
	code := cli.ExitOK
	if err := run(*out, *check, *runs, *warmup, *bitrate, *maxRegress, *floorMS, *maxAllocRegress); err != nil {
		fmt.Fprintf(os.Stderr, "pabprof: %v\n", err)
		code = cli.ExitRuntime
	}
	return tf.Finish("pabprof", code)
}

func run(out, check string, runs, warmup int, bitrate, maxRegress, floorMS, maxAllocRegress float64) error {
	telemetry.SetEnabled(true)

	// Synthesise the workload: one powered exchange, keeping the
	// hydrophone recording and where the decoder locked in it.
	cfg := core.DefaultLinkConfig()
	n, err := core.NewPaperNode(0x01, bitrate, sensors.RoomTank())
	if err != nil {
		return err
	}
	proj, err := core.NewPaperProjector(cfg.SampleRate)
	if err != nil {
		return err
	}
	link, err := core.NewLink(cfg, n, proj)
	if err != nil {
		return err
	}
	if err := link.EnsurePowered(120); err != nil {
		return err
	}
	res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
	if err != nil {
		return err
	}
	if res.Decoded == nil || len(res.Decoded.Bits) == 0 {
		return fmt.Errorf("exchange produced no decodable uplink (BER %.3f)", res.UplinkBER)
	}
	recording := res.Recording
	// Gate the decoder past the reader's own downlink keying, exactly
	// as the live exchange did — and decode at the bitrate the node
	// actually ran (NewPaperNode snaps the request to its clock grid).
	gate := res.DecodeGate
	bitrate = link.Node().Bitrate()

	recv := link.Receiver()
	prof.SetAllocTracking(true)
	defer prof.SetAllocTracking(false)
	for i := 0; i < warmup; i++ {
		if _, err := recv.DecodeUplink(recording, cfg.CarrierHz, bitrate, gate); err != nil {
			return fmt.Errorf("warm-up decode: %w", err)
		}
	}

	// Measure from a clean slate so stage statistics cover exactly the
	// measured runs.
	telemetry.Default().Reset()
	durs := make([]float64, 0, runs)
	decoded := 0
	wallStart := time.Now()
	for i := 0; i < runs; i++ {
		sp := telemetry.StartSpan("bench_decode")
		t0 := time.Now()
		dec, err := recv.DecodeUplink(recording, cfg.CarrierHz, bitrate, gate)
		d := time.Since(t0)
		sp.Attr("run", i).End()
		if err == nil && dec != nil {
			decoded++
		}
		durs = append(durs, d.Seconds())
	}
	wall := time.Since(wallStart).Seconds()

	snap := telemetry.Default().Snapshot()
	sort.Float64s(durs)
	var total float64
	for _, d := range durs {
		total += d
	}
	rep := prof.BenchReport{
		SchemaVersion:    1,
		Runs:             runs,
		SampleRate:       cfg.SampleRate,
		RecordingSamples: len(recording),
		BitrateBps:       bitrate,
		Decoded:          decoded,
		WallS:            wall,
		ChainP50MS:       prof.PercentileSorted(durs, 50) * 1e3,
		ChainP99MS:       prof.PercentileSorted(durs, 99) * 1e3,
		ChainMeanMS:      total / float64(runs) * 1e3,
		Stages:           prof.CollectStageStats(snap.Spans),
	}
	if wall > 0 {
		rep.OpsPerSec = float64(runs) / wall
	}
	rep.AttributePerChain()

	// Every pipeline stage must have run: a stage silently dropping out
	// of the measurement is itself a harness bug.
	for _, st := range prof.Stages {
		s, ok := rep.Stages[st.Key]
		if !ok || s.Count == 0 {
			return fmt.Errorf("stage %q recorded no invocations", st.Key)
		}
		if s.TotalSamples == 0 {
			return fmt.Errorf("stage %q recorded zero samples", st.Key)
		}
	}

	printSummary(rep)
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}

	if check != "" {
		base, err := readReport(check)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		if problems := rep.CheckAgainst(base, maxRegress, floorMS, maxAllocRegress); len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "pabprof: REGRESSION: %s\n", p)
			}
			return fmt.Errorf("%d regression(s) vs %s", len(problems), check)
		}
		fmt.Printf("ok vs %s (budget %.1fx latency, %.1fx alloc)\n", check, maxRegress, maxAllocRegress)
	}
	return nil
}

func printSummary(rep prof.BenchReport) {
	fmt.Printf("decode chain: %d/%d runs decoded, %.1f ops/sec, p50 %.3f ms, p99 %.3f ms, mean %.3f ms\n",
		rep.Decoded, rep.Runs, rep.OpsPerSec, rep.ChainP50MS, rep.ChainP99MS, rep.ChainMeanMS)
	fmt.Printf("%-12s %6s %10s %10s %12s %12s %9s %9s\n",
		"stage", "count", "p50 ms", "p99 ms", "samples/s", "B/op", "calls/ch", "ms/ch")
	for _, st := range prof.Stages {
		s := rep.Stages[st.Key]
		fmt.Printf("%-12s %6d %10.3f %10.3f %12.3g %12.0f %9.1f %9.3f\n",
			st.Key, s.Count, s.P50MS, s.P99MS, s.SamplesPerSec, s.AllocBytesPerOp, s.CallsPerChain, s.MSPerChain)
	}
	fmt.Printf("%-12s %6s %10s %10s %12s %12s %9s %9.3f (%.1f%% of the mean chain)\n",
		"unattributed", "", "", "", "", "", "", rep.UnattributedShare*rep.ChainMeanMS, 100*rep.UnattributedShare)
}

func writeReport(path string, rep prof.BenchReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (prof.BenchReport, error) {
	var rep prof.BenchReport
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}
