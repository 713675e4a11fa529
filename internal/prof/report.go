package prof

import (
	"fmt"
	"sort"
	"strings"

	"pab/internal/telemetry"
)

// StageStats summarises every recorded invocation of one pipeline
// stage — the per-stage row of BENCH_decode.json.
type StageStats struct {
	// Count is the number of recorded invocations.
	Count int `json:"count"`
	// P50MS/P99MS/MeanMS/MaxMS are wall-time percentiles per
	// invocation, in milliseconds (exact, computed from span records,
	// not histogram buckets).
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
	// OpsPerSec is 1/mean: sustained single-threaded invocation rate.
	OpsPerSec float64 `json:"ops_per_sec"`
	// TotalSamples is the total input samples the stage consumed;
	// SamplesPerSec is that volume over the stage's total busy time.
	TotalSamples  int64   `json:"total_samples"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	// AllocBytesPerOp is the mean heap-allocation delta per
	// invocation (0 unless alloc tracking was on).
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
	// CallsPerChain and MSPerChain are the stage's invocations and
	// total wall time divided by the runs of a BenchReport: what one
	// chain spends in it (see BenchReport.AttributePerChain).
	CallsPerChain float64 `json:"calls_per_chain"`
	MSPerChain    float64 `json:"ms_per_chain"`
}

// stageSpanPrefix is how StageTimer names its span records.
const stageSpanPrefix = "stage_"

// CollectStageStats aggregates the "stage_*" span records in a
// snapshot into per-stage statistics keyed by stage key.
func CollectStageStats(spans []telemetry.SpanRecord) map[string]StageStats {
	type acc struct {
		durs    []float64
		samples int64
		alloc   int64
	}
	accs := make(map[string]*acc)
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, stageSpanPrefix) {
			continue
		}
		key := strings.TrimPrefix(s.Name, stageSpanPrefix)
		a := accs[key]
		if a == nil {
			a = &acc{}
			accs[key] = a
		}
		a.durs = append(a.durs, s.DurationSeconds)
		a.samples += s.Samples
		a.alloc += s.AllocBytes
	}
	out := make(map[string]StageStats, len(accs))
	for key, a := range accs {
		sort.Float64s(a.durs)
		var sum float64
		for _, d := range a.durs {
			sum += d
		}
		n := len(a.durs)
		st := StageStats{
			Count:        n,
			P50MS:        PercentileSorted(a.durs, 50) * 1e3,
			P99MS:        PercentileSorted(a.durs, 99) * 1e3,
			MeanMS:       sum / float64(n) * 1e3,
			MaxMS:        a.durs[n-1] * 1e3,
			TotalSamples: a.samples,
		}
		if sum > 0 {
			st.OpsPerSec = float64(n) / sum
			st.SamplesPerSec = float64(a.samples) / sum
		}
		st.AllocBytesPerOp = float64(a.alloc) / float64(n)
		out[key] = st
	}
	return out
}

// PercentileSorted returns the pth percentile (nearest-rank) of an
// ascending-sorted slice: the value at rank round(p/100·n), clamped to
// the slice. An empty slice yields 0.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// BenchReport is the BENCH_decode.json schema: the per-stage baseline
// the ROADMAP's ≥10x raw-speed campaign is measured against.
type BenchReport struct {
	SchemaVersion int `json:"schema_version"`
	// Workload parameters.
	Runs             int     `json:"runs"`
	SampleRate       float64 `json:"sample_rate_hz"`
	RecordingSamples int     `json:"recording_samples"`
	BitrateBps       float64 `json:"bitrate_bps"`
	// Decoded counts CRC-clean decodes out of Runs.
	Decoded int `json:"decoded"`
	// WallS and OpsPerSec measure the full chain end to end.
	WallS     float64 `json:"wall_s"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// ChainP50MS/ChainP99MS/ChainMeanMS are per-run full-chain
	// latencies.
	ChainP50MS  float64 `json:"chain_p50_ms"`
	ChainP99MS  float64 `json:"chain_p99_ms"`
	ChainMeanMS float64 `json:"chain_mean_ms"`
	// UnattributedShare is the part of the mean chain no stage covers,
	// 1 − Σ ms_per_chain ÷ chain_mean_ms: axis projections and
	// estimates, CFO correction and telemetry between the stages.
	UnattributedShare float64 `json:"unattributed_share"`
	// Stages maps stage key (record/downconvert/filter/sync/decode) to
	// its statistics.
	Stages map[string]StageStats `json:"stages"`
}

// AttributePerChain fills every stage's calls_per_chain and
// ms_per_chain from Runs, and UnattributedShare from ChainMeanMS.
func (r *BenchReport) AttributePerChain() {
	if r.Runs <= 0 {
		return
	}
	keys := make([]string, 0, len(r.Stages))
	for key := range r.Stages {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var staged float64
	for _, key := range keys {
		s := r.Stages[key]
		s.CallsPerChain = float64(s.Count) / float64(r.Runs)
		s.MSPerChain = s.MeanMS * s.CallsPerChain
		r.Stages[key] = s
		staged += s.MSPerChain
	}
	if r.ChainMeanMS > 0 {
		r.UnattributedShare = 1 - staged/r.ChainMeanMS
	}
}

// CheckAgainst gates a fresh measurement against a committed baseline
// (the CI bench-decode-smoke job): every baseline stage must still be
// present with nonzero invocations and samples, must run as many times
// per chain as in the baseline (a chain's calls are deterministic, so
// a stage timed at another granularity fails here rather than passing
// on a cheaper per-call time), and may not spend more than maxRegress×
// the baseline's ms_per_chain; and, when maxAllocRegress > 0, no
// stage's alloc_bytes_per_op may grow more than maxAllocRegress×.
// Per-chain times under floorMS are floored before the latency ratio
// so sub-noise stages cannot trip the gate; the allocation ratio floors
// at 256 B per op for the same reason (allocator noise on near-zero
// stages). 256 B is a warm receiver's whole steady-state decode budget,
// so a stage that starts allocating a buffer per call trips the gate.
// Returns one message per violation.
func (r BenchReport) CheckAgainst(base BenchReport, maxRegress, floorMS, maxAllocRegress float64) []string {
	var problems []string
	floor := func(v float64) float64 {
		if v < floorMS {
			return floorMS
		}
		return v
	}
	const allocFloorBytes = 256
	floorAlloc := func(v float64) float64 {
		if v < allocFloorBytes {
			return allocFloorBytes
		}
		return v
	}
	for key, bs := range base.Stages {
		cur, ok := r.Stages[key]
		if !ok || cur.Count == 0 {
			problems = append(problems, fmt.Sprintf("stage %q: no invocations recorded (baseline has %d)", key, bs.Count))
			continue
		}
		if cur.TotalSamples == 0 {
			problems = append(problems, fmt.Sprintf("stage %q: zero samples processed", key))
		}
		if cur.Count*base.Runs != bs.Count*r.Runs {
			problems = append(problems, fmt.Sprintf(
				"stage %q: %d calls in %d chains, baseline %d in %d (calls_per_chain %.4g vs %.4g)",
				key, cur.Count, r.Runs, bs.Count, base.Runs, cur.CallsPerChain, bs.CallsPerChain))
		}
		if ratio := floor(cur.MSPerChain) / floor(bs.MSPerChain); ratio > maxRegress {
			problems = append(problems, fmt.Sprintf(
				"stage %q: ms_per_chain regressed %.2fx (%.3fms vs baseline %.3fms, budget %.1fx)",
				key, ratio, cur.MSPerChain, bs.MSPerChain, maxRegress))
		}
		if maxAllocRegress > 0 {
			if ratio := floorAlloc(cur.AllocBytesPerOp) / floorAlloc(bs.AllocBytesPerOp); ratio > maxAllocRegress {
				problems = append(problems, fmt.Sprintf(
					"stage %q: alloc_bytes_per_op regressed %.2fx (%.0fB vs baseline %.0fB, budget %.1fx)",
					key, ratio, cur.AllocBytesPerOp, bs.AllocBytesPerOp, maxAllocRegress))
			}
		}
	}
	if r.Decoded == 0 {
		problems = append(problems, "no run produced a CRC-clean decode")
	}
	return problems
}
