// Command pabbench measures the pabd scheduler: job throughput and
// latency percentiles for a 100-job scenario sweep, the worker-pool
// speedup over serial execution, and the cache-hit replay rate.
//
// Usage:
//
//	pabbench                      # print BENCH_pabd.json to stdout
//	pabbench -out BENCH_pabd.json # write the report to a file
//	pabbench -jobs 100 -workers 8 # sweep size and parallel pool size
//
// Two workloads run:
//
//   - scheduler: fixed-service-time jobs (pure scheduling overhead plus
//     a known per-job sleep), executed serially and then on the worker
//     pool. The speedup_x ratio isolates the scheduler's concurrency
//     from job physics — fixed service time makes the ideal ratio equal
//     to the worker count even on a single CPU.
//   - physics: real chaos scenarios through scenario.Run, reporting
//     end-to-end ops/sec and p50/p99 job latency, then a full replay of
//     the same sweep to measure content-addressed cache throughput.
//
// With -wal a third workload repeats the physics sweep on a WAL-backed
// durable store (DESIGN.md §14) in a temp directory, reporting the
// durability overhead versus the in-memory sweep, the cost of a
// restart replay, and the raw WAL counters. -wal-fsync picks the
// fsync policy being measured (interval by default; always is the
// power-loss-safe worst case).
//
// -stream switches to the streaming-receiver workload instead: N
// concurrent synthetic streams through a streamd hub (and again at
// 2N), reporting streams/sec, per-stream resident bytes, and decode
// latency percentiles as BENCH_stream.json. -stream-check gates a
// fresh run against a committed baseline the way pabprof -check does:
//
//	pabbench -stream -streams 1000 -out BENCH_stream.json
//	pabbench -stream -streams 200 -stream-check BENCH_stream.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"pab/internal/cli"
	"pab/internal/prof"
	"pab/internal/scenario"
	"pab/internal/sim"
	"pab/internal/telemetry"
	"pab/internal/wal"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	jobs := flag.Int("jobs", 100, "jobs per workload sweep")
	workers := flag.Int("workers", 8, "parallel worker-pool size")
	service := flag.Duration("service", 20*time.Millisecond, "fixed service time per scheduler-workload job")
	durable := flag.Bool("wal", false, "also sweep against a WAL-backed durable store and report the overhead")
	walFsync := flag.String("wal-fsync", "interval", "WAL fsync policy for the durable sweep: always, interval or never")
	streamMode := flag.Bool("stream", false, "benchmark the streaming receiver hub instead of the scheduler")
	streams := flag.Int("streams", 1000, "concurrent streams for -stream (also swept at double this)")
	streamCheck := flag.String("stream-check", "", "baseline BENCH_stream.json to gate against (exit 1 on regression)")
	streamMaxRegress := flag.Float64("stream-max-regress", 2, "max allowed regression factor in -stream-check mode")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pabbench: unexpected arguments: %v\n", flag.Args())
		return cli.Usage()
	}
	if *jobs < 1 || *workers < 1 {
		fmt.Fprintln(os.Stderr, "pabbench: -jobs and -workers must be positive")
		return cli.Usage()
	}
	if *streamMode {
		if *streams < 1 {
			fmt.Fprintln(os.Stderr, "pabbench: -streams must be positive")
			return cli.Usage()
		}
		return realStreamMain(*out, *streams, *streamCheck, *streamMaxRegress)
	}
	fsync, err := wal.ParseFsyncPolicy(*walFsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabbench: %v\n", err)
		return cli.Usage()
	}

	report, err := run(*jobs, *workers, *service, *durable, fsync, *walFsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabbench: %v\n", err)
		return cli.ExitRuntime
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabbench: %v\n", err)
		return cli.ExitRuntime
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
		return cli.ExitOK
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "pabbench: %v\n", err)
		return cli.ExitRuntime
	}
	fmt.Fprintf(os.Stderr, "pabbench: wrote %s\n", *out)
	return cli.ExitOK
}

// Report is the BENCH_pabd.json schema.
type Report struct {
	Jobs      int              `json:"jobs"`
	Workers   int              `json:"workers"`
	Scheduler SchedulerResult  `json:"scheduler"`
	Physics   PhysicsResult    `json:"physics"`
	CacheHits CacheReplayStats `json:"cache_replay"`
	Durable   *DurableResult   `json:"durable,omitempty"`
}

// DurableResult measures the physics sweep on a WAL-backed store: the
// write-path overhead versus the in-memory sweep, the cost of a
// restart replay, and the raw WAL counters behind both.
type DurableResult struct {
	Fsync           string  `json:"fsync"`
	WallS           float64 `json:"wall_s"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	OverheadPct     float64 `json:"overhead_pct"`
	ReplayWallS     float64 `json:"replay_wall_s"`
	ReplayedResults int64   `json:"replayed_results"`
	WALAppends      uint64  `json:"wal_appends"`
	WALFsyncs       uint64  `json:"wal_fsyncs"`
	WALSizeBytes    int64   `json:"wal_size_bytes"`
}

// SchedulerResult is the fixed-service-time speedup measurement.
type SchedulerResult struct {
	ServiceTimeMS float64 `json:"service_time_ms"`
	SerialS       float64 `json:"serial_s"`
	ParallelS     float64 `json:"parallel_s"`
	SpeedupX      float64 `json:"speedup_x"`
}

// PhysicsResult is the real-scenario throughput measurement.
type PhysicsResult struct {
	WallS      float64 `json:"wall_s"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	P50JobMS   float64 `json:"p50_job_ms"`
	P99JobMS   float64 `json:"p99_job_ms"`
	AllDone    bool    `json:"all_done"`
	CacheReady int     `json:"cache_entries"`
}

// CacheReplayStats measures resubmitting the identical sweep.
type CacheReplayStats struct {
	WallS     float64 `json:"wall_s"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Hits      int64   `json:"hits"`
}

func run(jobs, workers int, service time.Duration, durable bool, fsync wal.FsyncPolicy, fsyncName string) (*Report, error) {
	rep := &Report{Jobs: jobs, Workers: workers}

	// --- scheduler workload: fixed service time, serial vs pool ---
	sleeper := func(ctx context.Context, _ scenario.Spec) (json.RawMessage, error) {
		select {
		case <-time.After(service):
			return json.RawMessage(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	serial, _, err := timedSweep(1, jobs, sleeper)
	if err != nil {
		return nil, fmt.Errorf("serial sweep: %w", err)
	}
	parallel, _, err := timedSweep(workers, jobs, sleeper)
	if err != nil {
		return nil, fmt.Errorf("parallel sweep: %w", err)
	}
	rep.Scheduler = SchedulerResult{
		ServiceTimeMS: float64(service) / float64(time.Millisecond),
		SerialS:       serial.Seconds(),
		ParallelS:     parallel.Seconds(),
		SpeedupX:      serial.Seconds() / parallel.Seconds(),
	}

	// --- physics workload: real scenarios, latency percentiles ---
	reg := telemetry.NewRegistry()
	sched, err := sim.New(sim.Config{
		Workers: workers, QueueDepth: jobs, CacheEntries: jobs, Registry: reg,
	}, sim.ScenarioRunner)
	if err != nil {
		return nil, err
	}
	defer shutdown(sched)
	specs := chaosSweep(jobs)
	start := time.Now()
	views, err := runSweep(sched, specs)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	var latencies []float64
	allDone := true
	for _, v := range views {
		if v.State != sim.JobDone {
			allDone = false
			continue
		}
		latencies = append(latencies, (v.QueueWaitS+v.RunS)*1000)
	}
	sort.Float64s(latencies)
	rep.Physics = PhysicsResult{
		WallS:      wall.Seconds(),
		OpsPerSec:  float64(jobs) / wall.Seconds(),
		P50JobMS:   prof.PercentileSorted(latencies, 50),
		P99JobMS:   prof.PercentileSorted(latencies, 99),
		AllDone:    allDone,
		CacheReady: sched.Stats().CacheSize,
	}

	// --- replay: the identical sweep against a warm cache ---
	start = time.Now()
	if _, err := runSweep(sched, specs); err != nil {
		return nil, err
	}
	replay := time.Since(start)
	rep.CacheHits = CacheReplayStats{
		WallS:     replay.Seconds(),
		OpsPerSec: float64(jobs) / replay.Seconds(),
		Hits:      reg.Counter(telemetry.MSimCacheHitsTotal).Value(),
	}

	if durable {
		dur, err := durableSweep(jobs, workers, fsync, fsyncName, rep.Physics.WallS)
		if err != nil {
			return nil, fmt.Errorf("durable sweep: %w", err)
		}
		rep.Durable = dur
	}
	return rep, nil
}

// durableSweep reruns the physics sweep on a WAL-backed store in a
// temp directory, then restarts the store to time a cold replay of
// the finished batch. memWallS is the in-memory sweep's wall time,
// the baseline for overhead_pct.
func durableSweep(jobs, workers int, fsync wal.FsyncPolicy, fsyncName string, memWallS float64) (*DurableResult, error) {
	dir, err := os.MkdirTemp("", "pabbench-wal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	store, err := sim.OpenStore(wal.Options{Dir: dir, Fsync: fsync})
	if err != nil {
		return nil, err
	}
	sched, err := sim.New(sim.Config{
		Workers: workers, QueueDepth: jobs, CacheEntries: jobs,
		Registry: telemetry.NewRegistry(), Store: store,
	}, sim.ScenarioRunner)
	if err != nil {
		store.Close()
		return nil, err
	}
	start := time.Now()
	if _, err := runSweep(sched, chaosSweep(jobs)); err != nil {
		shutdown(sched)
		store.Close()
		return nil, err
	}
	wall := time.Since(start)
	var walStats wal.Stats
	if st := sched.Stats().WAL; st != nil {
		walStats = *st
	}
	shutdown(sched)
	if err := store.Close(); err != nil {
		return nil, err
	}

	// Restart: reopen the log and let the scheduler replay the whole
	// finished batch into its result cache.
	start = time.Now()
	store, err = sim.OpenStore(wal.Options{Dir: dir, Fsync: fsync})
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	sched, err = sim.New(sim.Config{
		Workers: workers, QueueDepth: jobs, CacheEntries: jobs,
		Registry: reg, Store: store,
	}, sim.ScenarioRunner)
	if err != nil {
		store.Close()
		return nil, err
	}
	replayWall := time.Since(start)
	replayed := reg.Counter(telemetry.MSimWalReplayedResultsTotal).Value()
	shutdown(sched)
	if err := store.Close(); err != nil {
		return nil, err
	}

	return &DurableResult{
		Fsync:           fsyncName,
		WallS:           wall.Seconds(),
		OpsPerSec:       float64(jobs) / wall.Seconds(),
		OverheadPct:     (wall.Seconds() - memWallS) / memWallS * 100,
		ReplayWallS:     replayWall.Seconds(),
		ReplayedResults: replayed,
		WALAppends:      walStats.Appends,
		WALFsyncs:       walStats.Fsyncs,
		WALSizeBytes:    walStats.TotalBytes,
	}, nil
}

// chaosSweep builds jobs unique cheap chaos scenarios (a seed sweep —
// the shape of a confidence-interval batch).
func chaosSweep(jobs int) []scenario.Spec {
	specs := make([]scenario.Spec, jobs)
	for i := range specs {
		specs[i] = scenario.Spec{
			Name: fmt.Sprintf("bench[seed=%d]", i+1),
			Kind: scenario.KindChaos,
			Seed: int64(i + 1),
			MAC:  scenario.MACSpec{DurationS: 30},
		}
	}
	return specs
}

// runSweep submits every spec and waits for all of them, returning the
// final views in input order.
func runSweep(sched *sim.Scheduler, specs []scenario.Spec) ([]sim.JobView, error) {
	_, views, err := sched.SubmitBatch(specs, 0)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	out := make([]sim.JobView, len(views))
	for i, v := range views {
		final, err := sched.Wait(ctx, v.ID)
		if err != nil {
			return nil, err
		}
		out[i] = final
	}
	return out, nil
}

// timedSweep measures the wall-clock time for a fresh scheduler with n
// workers to finish the standard sweep under the given runner.
func timedSweep(n, jobs int, run sim.Runner) (time.Duration, []sim.JobView, error) {
	sched, err := sim.New(sim.Config{
		Workers: n, QueueDepth: jobs, CacheEntries: jobs, Registry: telemetry.NewRegistry(),
	}, run)
	if err != nil {
		return 0, nil, err
	}
	defer shutdown(sched)
	start := time.Now()
	views, err := runSweep(sched, chaosSweep(jobs))
	if err != nil {
		return 0, nil, err
	}
	return time.Since(start), views, nil
}

func shutdown(s *sim.Scheduler) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}
