// Package prof is the stage-level pipeline profiler for the PAB
// receiver chain, layered on the telemetry substrate. The raw-speed
// campaign (ROADMAP) needs to know *which* stage of the decode chain —
// record → downconvert → filter → sync → decode — burns the
// milliseconds BENCH_pabd.json reports per physics job; whole-cycle
// spans cannot say. This package provides:
//
//   - StageTimer: a per-stage timer the chain's hot functions adopt.
//     One Stop records wall time, samples/sec throughput and (when
//     alloc tracking is on) a heap-allocation delta into typed
//     histograms, and files a "stage_<key>" span record, with the
//     samples and the delta as typed fields, so exact per-invocation
//     durations are available for percentile math (cmd/pabprof) and
//     trace export. A timer is a value: starting and stopping one
//     allocates nothing.
//   - Do: pprof label plumbing. Wrapping scheduler jobs and decode
//     runs attaches (stage, job_id, spec_hash, …) labels so
//     /debug/pprof/profile flamegraphs break down by pipeline stage.
//   - trace.go: a Chrome trace-event JSON exporter (/trace.json and
//     the -trace-out flag) that renders any run in Perfetto,
//     including the scheduler's queue-wait vs service-time phases.
//   - runtime.go: a background runtime/metrics poller (heap, GC
//     pauses, goroutines, scheduler latency) feeding the registry and
//     with it the Prometheus exposition.
//
// Everything is gated on the registry's enabled flag: with telemetry
// off, Start returns the zero StageTimer after one atomic load and its
// Stop returns at once, holding the instrumented hot path within the
// overhead budget (<2%, asserted by BenchmarkProfOverheadDecode in the
// repo root).
package prof

import (
	"context"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"pab/internal/telemetry"
)

// Stage identifies one receiver-chain pipeline stage and carries its
// pre-registered metric names (telemetry hygiene: the namespace is
// fixed at compile time, so stages are package-level variables, not
// runtime strings).
type Stage struct {
	// Key is the stage's short identifier; span records are filed as
	// "stage_<Key>" and trace rows are grouped by it.
	Key string

	span       string // "stage_<Key>"
	seconds    telemetry.Name
	throughput telemetry.Name
	alloc      telemetry.Name
}

// newStage returns a stage with its span name precomputed.
func newStage(key string, seconds, throughput, alloc telemetry.Name) Stage {
	return Stage{Key: key, span: stageSpanPrefix + key, seconds: seconds, throughput: throughput, alloc: alloc}
}

// The receiver-chain stages (paper §5.1b), in pipeline order.
var (
	// StageRecord is the hydrophone front end: pressure → voltage,
	// sensitivity and ADC modelling (internal/hydrophone via core).
	StageRecord = newStage("record", telemetry.MProfStageRecordSeconds,
		telemetry.MProfStageRecordSamplesPerSec, telemetry.MProfStageRecordAllocBytes)
	// StageDownconvert is the complex mix to baseband (internal/dsp).
	StageDownconvert = newStage("downconvert", telemetry.MProfStageDownconvertSeconds,
		telemetry.MProfStageDownconvertSamplesPSec, telemetry.MProfStageDownconvertAllocBytes)
	// StageFilter is the Butterworth channel filter on I and Q
	// (internal/dsp).
	StageFilter = newStage("filter", telemetry.MProfStageFilterSeconds,
		telemetry.MProfStageFilterSamplesPerSec, telemetry.MProfStageFilterAllocBytes)
	// StageSync is preamble correlation / packet detection
	// (internal/phy).
	StageSync = newStage("sync", telemetry.MProfStageSyncSeconds,
		telemetry.MProfStageSyncSamplesPerSec, telemetry.MProfStageSyncAllocBytes)
	// StageDecode is ML FM0 bit decoding plus CRC arbitration over the
	// candidate locks (internal/core).
	StageDecode = newStage("decode", telemetry.MProfStageDecodeSeconds,
		telemetry.MProfStageDecodeSamplesPerSec, telemetry.MProfStageDecodeAllocBytes)
)

// Stages lists every receiver-chain stage in pipeline order — the set
// BENCH_decode.json reports and the CI smoke gate checks.
var Stages = []Stage{StageRecord, StageDownconvert, StageFilter, StageSync, StageDecode}

// allocTracking switches per-stage heap-allocation deltas on. Reading
// runtime/metrics on every stage boundary is cheap but not free, so
// servers leave it off; cmd/pabprof switches it on for the bench.
var allocTracking atomic.Bool

// SetAllocTracking switches per-stage allocation-delta recording on or
// off (off by default).
func SetAllocTracking(on bool) { allocTracking.Store(on) }

// heapSample is the one runtime/metrics sample heapAllocs reads. A
// sample local to heapAllocs would be allocated on every read — Read
// hands it to the runtime, so it escapes — and every stage's delta
// would include the tracker's own allocation. The mutex keeps
// concurrent reads off the shared sample.
var heapSample = struct {
	sync.Mutex
	s [1]metrics.Sample
}{s: [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}

// heapAllocs reads the cumulative heap allocation counter. The sample
// is process-global — per-stage deltas are exact in a single-threaded
// harness (pabprof) and an upper bound under concurrency.
func heapAllocs() uint64 {
	heapSample.Lock()
	defer heapSample.Unlock()
	metrics.Read(heapSample.s[:])
	if v := heapSample.s[0].Value; v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// StageTimer measures one execution of a pipeline stage. The zero
// value, which Start returns when the registry is disabled, is a valid
// no-op, so call sites never guard.
type StageTimer struct {
	reg        *telemetry.Registry
	stage      Stage
	parent     uint64
	start      time.Time
	allocStart uint64
	haveAlloc  bool
}

// Start opens a stage timer on the default registry. Returns a no-op
// timer when the registry is disabled.
func Start(stage Stage) StageTimer { return StartIn(telemetry.Default(), stage) }

// StartIn opens a stage timer on a specific registry.
func StartIn(reg *telemetry.Registry, stage Stage) StageTimer {
	if reg == nil || !reg.Enabled() {
		return StageTimer{}
	}
	t := StageTimer{reg: reg, stage: stage}
	if allocTracking.Load() {
		t.allocStart = heapAllocs()
		t.haveAlloc = true
	}
	t.start = time.Now()
	return t
}

// WithParent links the stage's span record into an existing span tree
// (trace export groups a tree onto one Perfetto track). Returns the
// timer for chaining.
func (t StageTimer) WithParent(parent uint64) StageTimer {
	t.parent = parent
	return t
}

// Stop closes the timer: wall time goes to the stage's seconds
// histogram, samples/elapsed to its throughput histogram, the heap
// delta (when tracked) to its alloc histogram, and a "stage_<key>"
// span record carrying samples and the delta into the span ring.
// samples is the number of input samples the stage consumed; pass 0
// when unknown. Returns the measured duration; a no-op timer returns 0.
func (t StageTimer) Stop(samples int) time.Duration {
	if t.reg == nil {
		return 0
	}
	d := time.Since(t.start)
	var allocDelta int64
	if t.haveAlloc {
		if end := heapAllocs(); end > t.allocStart {
			allocDelta = int64(end - t.allocStart)
		}
	}
	sec := d.Seconds()
	t.reg.Observe(t.stage.seconds, sec)
	if samples > 0 && sec > 0 {
		t.reg.ObserveN(t.stage.throughput, telemetry.DefThroughputBuckets, float64(samples)/sec)
	}
	if t.haveAlloc {
		t.reg.ObserveN(t.stage.alloc, telemetry.DefBytesBuckets, float64(allocDelta))
	}
	t.reg.RecordSpan(telemetry.SpanRecord{
		ParentID:        t.parent,
		Name:            t.stage.span,
		Start:           t.start,
		DurationSeconds: sec,
		Samples:         int64(samples),
		AllocBytes:      allocDelta,
	})
	return d
}

// Do runs fn under pprof labels (key/value pairs appended to the
// calling goroutine's label set), so CPU profiles captured from
// /debug/pprof/profile attribute samples to pipeline stages and
// scheduler jobs. When the default registry is disabled, fn runs
// directly — the disabled path stays label- and allocation-free. A nil
// ctx selects context.Background.
func Do(ctx context.Context, fn func(), kv ...string) {
	if !telemetry.Enabled() || len(kv) < 2 {
		fn()
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pprof.Do(ctx, pprof.Labels(kv...), func(context.Context) { fn() })
}
