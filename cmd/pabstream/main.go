// Command pabstream serves decode-as-a-service: clients open streams,
// POST chunked PCM at them, and read decoded uplink frames back as
// NDJSON the moment each packet's CRC checks out. One daemon holds
// thousands of concurrent streams in bounded memory — each stream's
// receiver state is a fixed decode window plus filter/oscillator
// carry, not the recording so far.
//
// Usage:
//
//	pabstream -addr :8090                        # serve with defaults
//	pabstream -rate 96000 -carrier 15000 -bitrate 500
//	pabstream -max-streams 4096 -idle-timeout 2m
//	pabstream -carrier 0                         # detect per stream
//
// API (see DESIGN.md §17):
//
//	POST   /v1/streams              open ({format, sample_rate, ...})
//	POST   /v1/streams/{id}/chunks  feed PCM; NDJSON frame rows + ack
//	GET    /v1/streams/{id}         decoder stats
//	DELETE /v1/streams/{id}         flush + close; frame rows + eos
//	POST   /v1/decode               one-shot body → frames (curl-able)
//	GET    /healthz                 liveness + active stream count
//
// Admission control mirrors pabd: opens past -max-streams answer 429
// with a Retry-After hint. SIGTERM stops intake, then every in-flight
// stream's window is flushed — a packet whose bytes all arrived is
// decoded and counted, not dropped — before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"pab/internal/cli"
	"pab/internal/node"
	"pab/internal/stream"
	"pab/internal/stream/streamd"
	"pab/internal/units"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	addr := flag.String("addr", ":8090", "HTTP listen address")
	rate := flag.Float64("rate", 96000, "default sample rate (Hz)")
	carrier := flag.Float64("carrier", 15000, "default carrier (Hz; 0 = detect per stream)")
	bitrate := flag.Float64("bitrate", 500, "default backscatter bitrate (bit/s)")
	block := flag.Int("block", 0, "decoder block size in samples (0 = default 1024)")
	maxStreams := flag.Int("max-streams", 0, "concurrent stream cap before 429 shedding (0 = default 1024)")
	idleTimeout := flag.Duration("idle-timeout", time.Minute, "reap streams idle this long (0 = never)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed opens")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits while in-flight stream windows flush")
	var tf cli.TelemetryFlags
	tf.Register()
	var rf cli.RunFlags
	rf.Register()
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pabstream: unexpected arguments: %v\n", flag.Args())
		return cli.Usage()
	}
	if code := tf.Start("pabstream"); code != cli.ExitOK {
		return code
	}
	ctx, stop := rf.Context()
	defer stop()

	// The default bitrate is what a paper node's clock divider actually
	// emits, not the nominal request — same quantisation as pabdecode.
	// Per-stream overrides in open requests are taken literally.
	if q, qerr := node.PaperMCU().AchievableBitrate(*bitrate); qerr == nil {
		if !units.ApproxEqual(q, *bitrate, 1e-12) {
			fmt.Fprintf(os.Stderr, "pabstream: bitrate %.4g quantised to %.6g bit/s (MCU divider)\n", *bitrate, q)
		}
		*bitrate = q
	}

	code := cli.Exit("pabstream", serve(ctx, serveConfig{
		addr: *addr,
		hub: streamd.Config{
			Decoder: stream.Config{
				SampleRate: *rate,
				CarrierHz:  *carrier,
				BitrateBps: *bitrate,
				BlockSize:  *block,
			},
			MaxStreams:  *maxStreams,
			IdleTimeout: *idleTimeout,
			RetryAfter:  *retryAfter,
		},
		drainTimeout: *drainTimeout,
	}))
	return tf.Finish("pabstream", code)
}

type serveConfig struct {
	addr         string
	hub          streamd.Config
	drainTimeout time.Duration
}

// serve runs the daemon until ctx is cancelled (SIGINT/SIGTERM or
// -timeout), then drains (cli.Serve): intake stops, the listener closes
// so no new chunks arrive, then every live stream's window is flushed.
func serve(ctx context.Context, cfg serveConfig) error {
	// Fail fast on a bad decoder template rather than per open.
	if probe, err := stream.NewDecoder(cfg.hub.Decoder); err != nil {
		return fmt.Errorf("pabstream: decoder config: %w", err)
	} else {
		probe.Close()
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("pabstream: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pabstream: serving on %s\n", ln.Addr())
	hub := streamd.NewHub(cfg.hub)
	// BeginDrain stops admitting before the listener finishes in-flight
	// requests; Drain then flushes every live stream's window.
	return cli.Serve(ctx, "pabstream", ln, streamd.NewServer(hub).Handler(), cfg.drainTimeout, hub.BeginDrain, hub.Drain)
}
