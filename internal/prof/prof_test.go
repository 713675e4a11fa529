package prof

import (
	"math"
	"strings"
	"testing"
	"time"

	"pab/internal/telemetry"
)

// allocSink keeps the timed allocation on the heap.
var allocSink []byte

func TestStageTimerRecordsHistogramsAndSpan(t *testing.T) {
	reg := telemetry.NewRegistry()
	SetAllocTracking(true)
	defer SetAllocTracking(false)

	st := StartIn(reg, StageDecode)
	if st == (StageTimer{}) {
		t.Fatal("StartIn returned a no-op timer on an enabled registry")
	}
	// Allocate something measurable and let time pass.
	allocSink = make([]byte, 1<<16)
	time.Sleep(time.Millisecond)
	d := st.Stop(1000)
	if d <= 0 {
		t.Fatalf("Stop returned non-positive duration %v", d)
	}

	snap := reg.Snapshot()
	if h := snap.Histograms[string(telemetry.MProfStageDecodeSeconds)]; h.Count != 1 {
		t.Fatalf("seconds histogram count = %d, want 1", h.Count)
	}
	if h := snap.Histograms[string(telemetry.MProfStageDecodeSamplesPerSec)]; h.Count != 1 {
		t.Fatalf("throughput histogram count = %d, want 1", h.Count)
	}
	if h := snap.Histograms[string(telemetry.MProfStageDecodeAllocBytes)]; h.Count != 1 {
		t.Fatalf("alloc histogram count = %d, want 1", h.Count)
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("span records = %d, want 1", len(snap.Spans))
	}
	sp := snap.Spans[0]
	if sp.Name != "stage_decode" {
		t.Fatalf("span name = %q, want stage_decode", sp.Name)
	}
	if sp.Samples != 1000 {
		t.Fatalf("samples = %d, want 1000", sp.Samples)
	}
	if sp.AllocBytes < 1<<16 {
		t.Fatalf("alloc_bytes = %d with alloc tracking on, want ≥ the 64 KiB allocated", sp.AllocBytes)
	}
	if sp.Attrs != nil {
		t.Fatalf("stage span carries attrs %v; samples and alloc_bytes are fields", sp.Attrs)
	}
}

func TestStageTimerDisabledIsNoOp(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.SetEnabled(false)
	st := StartIn(reg, StageSync)
	if st != (StageTimer{}) {
		t.Fatal("StartIn should return the zero timer on a disabled registry")
	}
	// The zero timer must be safe throughout.
	if d := st.Stop(123); d != 0 {
		t.Fatalf("zero timer Stop = %v, want 0", d)
	}
	var zero StageTimer
	if d := zero.Stop(1); d != 0 {
		t.Fatalf("zero timer Stop = %v, want 0", d)
	}
	if len(reg.Snapshot().Spans) != 0 {
		t.Fatal("disabled registry recorded spans")
	}
}

func TestDoRunsFnInAllModes(t *testing.T) {
	was := telemetry.Enabled()
	defer telemetry.SetEnabled(was)

	for _, enabled := range []bool{true, false} {
		telemetry.SetEnabled(enabled)
		ran := false
		Do(nil, func() { ran = true }, "stage", "test")
		if !ran {
			t.Fatalf("Do(enabled=%v) did not run fn", enabled)
		}
	}
	// Odd/short label lists run fn directly instead of panicking in
	// pprof.Labels.
	telemetry.SetEnabled(true)
	ran := false
	Do(nil, func() { ran = true }, "stage")
	if !ran {
		t.Fatal("Do with short label list did not run fn")
	}
}

func TestCollectStageStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	base := time.Now()
	for i, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		reg.RecordSpan(telemetry.SpanRecord{Name: "stage_sync", Start: base.Add(time.Duration(i) * time.Millisecond),
			DurationSeconds: d.Seconds(), Samples: 100, AllocBytes: 50})
	}
	reg.RecordSpan(telemetry.SpanRecord{Name: "not_a_stage", Start: base, DurationSeconds: 0.001})

	stats := CollectStageStats(reg.Snapshot().Spans)
	if len(stats) != 1 {
		t.Fatalf("stats for %d stages, want 1", len(stats))
	}
	s, ok := stats["sync"]
	if !ok {
		t.Fatal("sync stage missing")
	}
	if s.Count != 3 || s.TotalSamples != 300 {
		t.Fatalf("count=%d samples=%d, want 3/300", s.Count, s.TotalSamples)
	}
	if s.P50MS < 1.9 || s.P50MS > 2.1 {
		t.Fatalf("p50 = %.3f ms, want ~2", s.P50MS)
	}
	if s.MaxMS < 2.9 || s.MaxMS > 3.1 {
		t.Fatalf("max = %.3f ms, want ~3", s.MaxMS)
	}
	if s.AllocBytesPerOp != 50 {
		t.Fatalf("alloc/op = %g, want 50", s.AllocBytesPerOp)
	}
	if s.OpsPerSec <= 0 || s.SamplesPerSec <= 0 {
		t.Fatalf("rates not positive: %+v", s)
	}
}

func TestBenchReportAttributePerChain(t *testing.T) {
	rep := BenchReport{
		Runs:        4,
		ChainMeanMS: 10,
		Stages: map[string]StageStats{
			"sync":   {Count: 72, MeanMS: 0.25}, // 18 calls, 4.5 ms per chain
			"filter": {Count: 4, MeanMS: 3.5},
		},
	}
	rep.AttributePerChain()
	if s := rep.Stages["sync"]; s.CallsPerChain != 18 || math.Abs(s.MSPerChain-4.5) > 1e-12 {
		t.Errorf("sync per chain = %g calls, %g ms; want 18, 4.5", s.CallsPerChain, s.MSPerChain)
	}
	if s := rep.Stages["filter"]; s.CallsPerChain != 1 || math.Abs(s.MSPerChain-3.5) > 1e-12 {
		t.Errorf("filter per chain = %g calls, %g ms; want 1, 3.5", s.CallsPerChain, s.MSPerChain)
	}
	if math.Abs(rep.UnattributedShare-0.2) > 1e-12 {
		t.Errorf("unattributed share %g, want 0.2", rep.UnattributedShare)
	}
	// Stages that overlap or outlast the chain mean read negative.
	rep.ChainMeanMS = 5
	rep.AttributePerChain()
	if math.Abs(rep.UnattributedShare+0.6) > 1e-12 {
		t.Errorf("unattributed share %g, want -0.6", rep.UnattributedShare)
	}
}

func TestBenchReportCheckAgainst(t *testing.T) {
	base := BenchReport{
		Stages: map[string]StageStats{
			"sync":   {Count: 10, P50MS: 1.0, TotalSamples: 100},
			"decode": {Count: 10, P50MS: 2.0, TotalSamples: 100},
		},
	}
	// Clean run: slight regression within budget.
	cur := BenchReport{
		Decoded: 5,
		Stages: map[string]StageStats{
			"sync":   {Count: 10, P50MS: 1.5, TotalSamples: 100},
			"decode": {Count: 10, P50MS: 2.0, TotalSamples: 100},
		},
	}
	if problems := cur.CheckAgainst(base, 2, 0.05, 1.5); len(problems) != 0 {
		t.Fatalf("clean run flagged: %v", problems)
	}
	// Regression, missing stage, zero samples, zero decodes.
	bad := BenchReport{
		Stages: map[string]StageStats{
			"sync": {Count: 10, P50MS: 5.0, TotalSamples: 0},
		},
	}
	problems := bad.CheckAgainst(base, 2, 0.05, 1.5)
	if len(problems) != 4 {
		t.Fatalf("want 4 problems (regression, zero samples, missing stage, zero decodes), got %d: %v",
			len(problems), problems)
	}
	// The floor keeps sub-noise stages from tripping the ratio: 0.01 ms
	// vs 0.001 ms is 10x raw but 1x after a 0.05 ms floor.
	noisy := BenchReport{
		Decoded: 1,
		Stages: map[string]StageStats{
			"sync":   {Count: 10, P50MS: 0.01, TotalSamples: 100},
			"decode": {Count: 10, P50MS: 2.0, TotalSamples: 100},
		},
	}
	tiny := BenchReport{Stages: map[string]StageStats{
		"sync":   {Count: 10, P50MS: 0.001, TotalSamples: 100},
		"decode": {Count: 10, P50MS: 2.0, TotalSamples: 100},
	}}
	if problems := noisy.CheckAgainst(tiny, 2, 0.05, 1.5); len(problems) != 0 {
		t.Fatalf("floored comparison flagged: %v", problems)
	}
}

func TestBenchReportAllocGate(t *testing.T) {
	base := BenchReport{
		Stages: map[string]StageStats{
			"decode": {Count: 10, P50MS: 2.0, TotalSamples: 100, AllocBytesPerOp: 100_000},
			"sync":   {Count: 10, P50MS: 1.0, TotalSamples: 100, AllocBytesPerOp: 100},
		},
	}
	// decode doubles its per-op allocations: past a 1.5x budget. sync
	// also doubles, but both sides sit under the 256 B floor, so the
	// allocator-noise clamp keeps it clean.
	cur := BenchReport{
		Decoded: 5,
		Stages: map[string]StageStats{
			"decode": {Count: 10, P50MS: 2.0, TotalSamples: 100, AllocBytesPerOp: 200_000},
			"sync":   {Count: 10, P50MS: 1.0, TotalSamples: 100, AllocBytesPerOp: 200},
		},
	}
	problems := cur.CheckAgainst(base, 2, 0.05, 1.5)
	if len(problems) != 1 || !strings.Contains(problems[0], "alloc_bytes_per_op") {
		t.Fatalf("want exactly the decode alloc regression, got %v", problems)
	}
	// A zero maxAllocRegress disables the gate (latency-only checks).
	if problems := cur.CheckAgainst(base, 2, 0.05, 0); len(problems) != 0 {
		t.Fatalf("disabled alloc gate still flagged: %v", problems)
	}
	// Within budget passes.
	cur.Stages["decode"] = StageStats{Count: 10, P50MS: 2.0, TotalSamples: 100, AllocBytesPerOp: 140_000}
	if problems := cur.CheckAgainst(base, 2, 0.05, 1.5); len(problems) != 0 {
		t.Fatalf("within-budget alloc flagged: %v", problems)
	}
	// A per-call buffer on a near-allocation-free stage: a 16-float
	// scratch slice made on every decode took the committed decode
	// stage from 137 to 2,458 B/op, under the old 4 KiB floor.
	small := BenchReport{Stages: map[string]StageStats{
		"decode": {Count: 10, P50MS: 2.0, TotalSamples: 100, AllocBytesPerOp: 137},
	}}
	grown := BenchReport{Decoded: 5, Stages: map[string]StageStats{
		"decode": {Count: 10, P50MS: 2.0, TotalSamples: 100, AllocBytesPerOp: 2458},
	}}
	if problems := grown.CheckAgainst(small, 2, 0.05, 1.5); len(problems) != 1 || !strings.Contains(problems[0], "alloc_bytes_per_op") {
		t.Fatalf("137 → 2458 B/op decode regression not flagged: %v", problems)
	}
}

// TestPercentileSorted pins the nearest-rank formula shared by the
// BENCH reports: rank int(p/100·n+0.5)-1, clamped to [0, n-1]. The
// values are 1..n, so each expectation is the 1-based rank.
func TestPercentileSorted(t *testing.T) {
	cases := []struct {
		n       int
		p, want float64
	}{
		{1, 50, 1}, {1, 99, 1},
		{60, 50, 30}, {60, 99, 59},
		{250, 50, 125}, {250, 99, 248},
	}
	for _, c := range cases {
		sorted := make([]float64, c.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		if got := PercentileSorted(sorted, c.p); got != c.want {
			t.Errorf("n=%d p%g = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if got := PercentileSorted(nil, 50); got != 0 {
		t.Errorf("empty slice p50 = %g, want 0", got)
	}
}
