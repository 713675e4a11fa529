// Command pabsim regenerates the paper's evaluation figures from the
// simulated PAB system.
//
// Usage:
//
//	pabsim -experiment fig3          # one figure as TSV on stdout
//	pabsim -experiment fig3 -plot    # the same figure as an ASCII chart
//	pabsim -experiment all           # every figure, with banners
//	pabsim -list                     # available experiment ids
//	pabsim -chaos shrimp -seed 7     # blind-vs-adaptive chaos comparison
//	pabsim -telemetry out.json       # smoke exchange + telemetry snapshot
//
// -chaos runs the fault-injection scenario under the named profile
// (calm, shrimp, storm, brownout, drift, abyss) and reports delivered
// goodput, recovery latency and per-fault-class injection counts for a
// blind fixed-rate poller versus the adaptive session. Runs are seeded:
// the same -seed reproduces a bit-identical report (check the printed
// fingerprint). -timeout bounds any invocation's wall-clock time.
//
// Every invocation accepts -telemetry out.json (JSON snapshot of the
// stage-timing spans, layer counters and decode reports accumulated
// during the run) and -debug-addr :6060 (live /metrics, /telemetry.json
// and /debug/pprof). With -telemetry alone, pabsim runs a short smoke
// exchange — power-up, ARQ sensor poll, slotted-ALOHA inventory — so
// the snapshot exercises the full signal path.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"pab/internal/cli"
	"pab/internal/core"
	"pab/internal/experiments"
	"pab/internal/frame"
	"pab/internal/mac"
	"pab/internal/plot"
	"pab/internal/scenario"
	"pab/internal/sensors"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	exp := flag.String("experiment", "", "experiment id (see -list), or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	doPlot := flag.Bool("plot", false, "render an ASCII chart instead of TSV")
	chaos := flag.String("chaos", "", "run a chaos scenario under this fault profile (calm | shrimp | storm | brownout | drift | abyss)")
	seed := flag.Int64("seed", 1, "chaos scenario seed; equal seeds yield bit-identical reports")
	chaosDur := flag.Float64("chaos-duration", 180, "simulated seconds per chaos strategy run")
	var tf cli.TelemetryFlags
	tf.Register()
	var rf cli.RunFlags
	rf.Register()
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pabsim: unexpected arguments: %v\n", flag.Args())
		return cli.Usage()
	}
	if code := tf.Start("pabsim"); code != cli.ExitOK {
		return code
	}
	ctx, stop := rf.Context()
	defer stop()

	code := cli.ExitOK
	switch {
	case *list:
		for _, name := range experiments.Names() {
			desc, _ := experiments.Describe(name)
			fmt.Printf("%-10s %s\n", name, desc)
		}
	case *chaos != "":
		code = cli.Exit("pabsim", cli.RunWithContext(ctx, func() error {
			return runChaos(ctx, *chaos, *seed, *chaosDur)
		}))
	case *exp == "all":
		code = cli.Exit("pabsim", cli.RunWithContext(ctx, func() error {
			for _, name := range experiments.Names() {
				if err := ctx.Err(); err != nil {
					return err
				}
				desc, _ := experiments.Describe(name)
				fmt.Printf("## %s — %s\n", name, desc)
				if err := run(name, *doPlot); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				fmt.Println()
			}
			return nil
		}))
	case *exp != "":
		code = cli.Exit("pabsim", cli.RunWithContext(ctx, func() error {
			return run(*exp, *doPlot)
		}))
	case tf.SnapshotPath != "" || tf.DebugAddr != "":
		// Telemetry-only invocation: exercise the full signal path so
		// the snapshot carries stage spans, MAC counters and decode
		// reports.
		code = cli.Exit("pabsim", cli.RunWithContext(ctx, smokeExchange))
	default:
		return cli.Usage()
	}
	return tf.Finish("pabsim", code)
}

// runChaos runs the blind-vs-adaptive fault-injection comparison and
// renders its report. The run is expressed as a scenario.Spec — the
// same schema pabd serves — so the CLI and the daemon execute
// identical, identically-hashed runs. Four nodes matches the historic
// fault.DefaultScenarioConfig deployment, keeping seeded output
// bit-identical.
func runChaos(ctx context.Context, profile string, seed int64, durS float64) error {
	nodes := make([]scenario.NodeSpec, 4)
	for i := range nodes {
		nodes[i] = scenario.NodeSpec{Addr: byte(i + 1)}
	}
	spec := scenario.Spec{
		Kind:  scenario.KindChaos,
		Seed:  seed,
		Nodes: nodes,
		MAC:   scenario.MACSpec{DurationS: durS},
		Chaos: scenario.ChaosSpec{Profile: profile},
	}
	res, err := scenario.Run(ctx, spec)
	if err != nil {
		return err
	}
	res.Chaos.WriteText(os.Stdout)
	return nil
}

// smokeExchange runs one end-to-end interrogation cycle plus the MAC
// machinery: node power-up, an ARQ-polled sensor read over the default
// single-node link, and a slotted-ALOHA inventory round.
func smokeExchange() error {
	cfg := core.DefaultLinkConfig()
	n, err := core.NewPaperNode(0x01, 500, sensors.RoomTank())
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
	poller, err := mac.NewPoller(link.Transport(), 2)
	if err != nil {
		return err
	}
	df, err := poller.ReadSensor(0x01, frame.SensorPH)
	if err != nil {
		return err
	}
	inv, err := mac.Inventory([]byte{0x11, 0x12, 0x13, 0x14}, mac.DefaultInventoryConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	stats := poller.Stats()
	fmt.Printf("smoke exchange: sensor frame from %#02x (seq %d), %d queries, %.2f s airtime\n",
		df.Source, df.Seq, stats.Queries, stats.Airtime)
	fmt.Printf("inventory: %d nodes in %d rounds (%d slots, efficiency %.2f)\n",
		len(inv.Identified), inv.Rounds, inv.Slots, inv.Efficiency())
	return nil
}

// run executes one experiment, optionally rendering its TSV as a chart.
func run(name string, doPlot bool) error {
	if !doPlot {
		return experiments.Run(name, os.Stdout)
	}
	var buf bytes.Buffer
	if err := experiments.Run(name, &buf); err != nil {
		return err
	}
	series, err := plot.ParseTSV(buf.String())
	if err != nil {
		// Not chartable (e.g. textual columns): fall back to the table.
		fmt.Print(buf.String())
		return nil
	}
	// Decade-spanning positive data (BER curves) reads better on a log
	// axis.
	opt := plot.Options{LogY: true}
	for _, s := range series {
		for _, y := range s.Y {
			if y <= 0 {
				opt.LogY = false
			}
		}
	}
	if opt.LogY {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range series {
			for _, y := range s.Y {
				lo = math.Min(lo, y)
				hi = math.Max(hi, y)
			}
		}
		if hi/lo < 1000 {
			opt.LogY = false
		}
	}
	return plot.RenderWithOptions(os.Stdout, name, series, 72, 20, opt)
}
