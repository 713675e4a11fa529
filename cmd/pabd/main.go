// Command pabd serves the PAB scenario scheduler over HTTP: submit
// versioned scenario specs as jobs, poll their status, stream batch
// results as NDJSON, and let the content-addressed cache absorb
// repeated runs.
//
// Usage:
//
//	pabd -addr :8080                    # serve the API
//	pabd -addr :8080 -workers 4         # fixed worker pool
//	pabd -queue 128 -cache 512          # queue depth, cache entries
//	pabd -job-timeout 90s               # per-job deadline
//	pabd -wal /var/lib/pabd/wal         # durable job store (crash recovery)
//	pabd -wal wal -wal-fsync always     # power-loss-safe durability tier
//	pabd -retries 3                     # bounded retry budget per job
//
// API (see DESIGN.md §12):
//
//	GET    /healthz                   liveness + queue stats
//	POST   /v1/jobs                   submit a scenario spec (or {spec, priority})
//	GET    /v1/jobs/{id}              poll job status
//	DELETE /v1/jobs/{id}              cancel
//	GET    /v1/jobs/{id}/result       result JSON (409 until ready)
//	POST   /v1/batches                {specs: [...]} or {sweep: {base, axes}}
//	GET    /v1/batches/{id}           batch summary with per-job headline
//	GET    /v1/batches/{id}/stream    NDJSON results as jobs finish
//	GET    /metrics                   Prometheus text exposition
//	GET    /telemetry.json            full telemetry snapshot
//
// Job ids are the canonical scenario hash, so identical specs
// deduplicate in flight and hit the result cache afterwards. A full
// queue answers 429 with a Retry-After estimate; SIGTERM stops intake,
// drains in-flight jobs for -drain-timeout, then exits.
//
// With -wal the job lifecycle is durable (DESIGN.md §14): every state
// transition appends to a checksummed write-ahead log before taking
// effect, a restarted daemon replays the log — completed jobs come
// back as cache hits, unfinished ones re-enqueue — and -retries
// bounds re-execution of retryably-failed jobs with exponential
// backoff before they land on GET /v1/deadletter.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"pab/internal/cli"
	"pab/internal/sim"
	"pab/internal/wal"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queued-job capacity before 429 backpressure (0 = default)")
	cache := flag.Int("cache", 0, "result cache entries (0 = default)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job deadline (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight jobs before cancelling them")
	walDir := flag.String("wal", "", "write-ahead-log directory for the durable job store (empty = memory-only)")
	walFsync := flag.String("wal-fsync", "interval", "WAL fsync policy: always, interval or never")
	walSegment := flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold (0 = default 4 MiB)")
	walCompact := flag.Int64("wal-compact-bytes", 0, "WAL size that triggers compaction (0 = default 8 MiB)")
	retries := flag.Int("retries", 3, "per-job attempt budget for retryable failures (1 = no retries)")
	retryBase := flag.Duration("retry-base", 0, "base retry backoff (0 = default 500ms)")
	shedHW := flag.Float64("shed-high-water", 0,
		"queue fraction past which higher-priority work sheds the lowest-priority queued job (0 = default 0.9, negative disables)")
	var tf cli.TelemetryFlags
	tf.Register()
	var rf cli.RunFlags
	rf.Register()
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pabd: unexpected arguments: %v\n", flag.Args())
		return cli.Usage()
	}
	fsync, err := wal.ParseFsyncPolicy(*walFsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabd: %v\n", err)
		return cli.Usage()
	}
	if code := tf.Start("pabd"); code != cli.ExitOK {
		return code
	}
	ctx, stop := rf.Context()
	defer stop()

	code := cli.Exit("pabd", serve(ctx, serveConfig{
		addr: *addr,
		sched: sim.Config{
			Workers:       *workers,
			QueueDepth:    *queue,
			CacheEntries:  *cache,
			JobTimeout:    *jobTimeout,
			Retry:         sim.RetryPolicy{MaxAttempts: *retries, BaseBackoff: *retryBase},
			ShedHighWater: *shedHW,
			CompactBytes:  *walCompact,
		},
		walDir:       *walDir,
		walFsync:     fsync,
		walSegment:   *walSegment,
		drainTimeout: *drainTimeout,
	}))
	return tf.Finish("pabd", code)
}

type serveConfig struct {
	addr         string
	sched        sim.Config
	walDir       string
	walFsync     wal.FsyncPolicy
	walSegment   int64
	drainTimeout time.Duration
}

// serve runs the daemon until ctx is cancelled (SIGINT/SIGTERM or
// -timeout), then drains (cli.Serve): the HTTP listener closes first
// so no new jobs arrive, queued jobs are cancelled, and in-flight jobs
// get drainTimeout to finish.
func serve(ctx context.Context, cfg serveConfig) error {
	if cfg.walDir != "" {
		store, err := sim.OpenStore(wal.Options{
			Dir:          cfg.walDir,
			SegmentBytes: cfg.walSegment,
			Fsync:        cfg.walFsync,
			Registry:     cfg.sched.Registry,
		})
		if err != nil {
			return fmt.Errorf("pabd: open wal: %w", err)
		}
		defer store.Close()
		cfg.sched.Store = store
	}
	sched, err := sim.New(cfg.sched, sim.ScenarioRunner)
	if err != nil {
		return err
	}
	if cfg.walDir != "" {
		st := sched.Stats()
		fmt.Fprintf(os.Stderr, "pabd: wal replay: %d queued, %d cached results, %d dead letters\n",
			st.Queued, st.CacheSize, st.DeadLetters)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("pabd: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pabd: serving on %s (%d workers)\n", ln.Addr(), sched.Workers())
	return cli.Serve(ctx, "pabd", ln, sim.NewServer(sched).Handler(), cfg.drainTimeout, nil, sched.Shutdown)
}
