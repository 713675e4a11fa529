// Command pabwave exports PAB waveforms as 16-bit mono WAV files — the
// same currency the paper's setup worked in (audio amplifier in,
// Audacity out, §5.1). Useful for inspecting the PWM query structure,
// the backscatter modulation, or even driving real audio hardware.
//
//	pabwave -kind query   -o query.wav      # a PWM downlink query
//	pabwave -kind exchange -o exchange.wav  # full hydrophone recording
//	pabwave -kind trace   -o trace.wav      # the Fig 2 CW + toggling trace
//
// Like the other pab binaries it accepts -telemetry out.json (JSON
// snapshot of the exchange's stage spans and metrics on exit) and
// -debug-addr :6060 (live /metrics and /debug/pprof).
package main

import (
	"flag"
	"fmt"
	"os"

	"pab/internal/audio"
	"pab/internal/cli"
	"pab/internal/core"
	"pab/internal/frame"
	"pab/internal/sensors"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	kind := flag.String("kind", "exchange", "waveform: query | exchange | trace")
	out := flag.String("o", "pab.wav", "output WAV path")
	bitrate := flag.Float64("bitrate", 500, "backscatter bitrate (bit/s)")
	var tf cli.TelemetryFlags
	tf.Register()
	var rf cli.RunFlags
	rf.Register()
	flag.Parse()
	switch *kind {
	case "query", "exchange", "trace":
	default:
		fmt.Fprintf(os.Stderr, "pabwave: unknown kind %q (query | exchange | trace)\n", *kind)
		return cli.Usage()
	}
	if *out == "" || flag.NArg() > 0 || *bitrate <= 0 {
		return cli.Usage()
	}
	if code := tf.Start("pabwave"); code != cli.ExitOK {
		return code
	}
	ctx, stop := rf.Context()
	defer stop()
	code := cli.Exit("pabwave", cli.RunWithContext(ctx, func() error {
		return run(*kind, *out, *bitrate)
	}))
	return tf.Finish("pabwave", code)
}

func run(kind, out string, bitrate float64) error {
	samples, fs, err := generate(kind, bitrate)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := audio.WriteWAV(f, int(fs), samples, true); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d samples at %.0f Hz (%.2f s)\n",
		out, len(samples), fs, float64(len(samples))/fs)
	return nil
}

func generate(kind string, bitrate float64) ([]float64, float64, error) {
	cfg := core.DefaultLinkConfig()
	n, err := core.NewPaperNode(0x01, bitrate, sensors.RoomTank())
	if err != nil {
		return nil, 0, err
	}
	proj, err := core.NewPaperProjector(cfg.SampleRate)
	if err != nil {
		return nil, 0, err
	}
	switch kind {
	case "query":
		q := frame.Query{Dest: 0x01, Command: frame.CmdReadSensor, Param: byte(frame.SensorPH)}
		x, _, err := proj.Query(q, cfg.DriveV, cfg.CarrierHz, cfg.PWMUnit, 0.1)
		return x, cfg.SampleRate, err
	case "exchange":
		link, err := core.NewLink(cfg, n, proj)
		if err != nil {
			return nil, 0, err
		}
		if err := link.EnsurePowered(120); err != nil {
			return nil, 0, err
		}
		res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
		if err != nil {
			return nil, 0, err
		}
		return res.Recording, cfg.SampleRate, nil
	case "trace":
		link, err := core.NewLink(cfg, n, proj)
		if err != nil {
			return nil, 0, err
		}
		tr, err := link.RunTrace(1.6, 0.2, 0.8, 5)
		if err != nil {
			return nil, 0, err
		}
		return tr.Amplitude, tr.SampleRate, nil
	default:
		return nil, 0, fmt.Errorf("unknown kind %q (query | exchange | trace)", kind)
	}
}
