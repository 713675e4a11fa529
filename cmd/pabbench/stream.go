package main

// The -stream workload measures the streaming receiver as a service:
// N concurrent synthetic streams through a streamd.Hub, reporting
// streams/sec, per-stream resident bytes, and decode latency
// percentiles. The sweep runs at N and again at 2N so the report can
// show (and -stream-check can gate) that per-stream memory stays flat
// as the stream count doubles — the bounded-window guarantee.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"pab/internal/cli"
	"pab/internal/frame"
	"pab/internal/prof"
	"pab/internal/stream"
	"pab/internal/stream/streamd"
)

// realStreamMain is the -stream entry point: sweep, report, and (with
// a baseline) gate.
func realStreamMain(out string, streams int, check string, maxRegress float64) int {
	rep, err := runStream(streams)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabbench: stream: %v\n", err)
		return cli.ExitRuntime
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabbench: %v\n", err)
		return cli.ExitRuntime
	}
	b = append(b, '\n')
	if out == "" {
		os.Stdout.Write(b)
	} else if err := os.WriteFile(out, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "pabbench: %v\n", err)
		return cli.ExitRuntime
	} else {
		fmt.Fprintf(os.Stderr, "pabbench: wrote %s\n", out)
	}

	var base *StreamReport
	if check != "" {
		base, err = readStreamReport(check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pabbench: baseline: %v\n", err)
			return cli.ExitRuntime
		}
	}
	problems := rep.CheckStream(base, maxRegress)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "pabbench: REGRESSION: %s\n", p)
		}
		return cli.ExitRuntime
	}
	if check != "" {
		fmt.Printf("ok vs %s (budget %.1fx, flatness %.2fx)\n", check, maxRegress, rep.FlatnessX)
	}
	return cli.ExitOK
}

func readStreamReport(path string) (*StreamReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep StreamReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// streamLatencyFloorMS keeps the -stream-check latency gate from
// firing on sub-floor noise: a decode that finishes in under this many
// milliseconds is fast enough regardless of the baseline ratio.
const streamLatencyFloorMS = 5

// StreamReport is the BENCH_stream.json schema.
type StreamReport struct {
	Streams int         `json:"streams"`
	Runs    []StreamRun `json:"runs"` // at N and 2N
	// FlatnessX is bytes_per_stream at 2N over bytes_per_stream at N.
	// Flat per-stream memory keeps it near 1; it is gated at 1.5.
	FlatnessX float64 `json:"flatness_x"`
}

// StreamRun is one concurrency level of the sweep.
type StreamRun struct {
	Streams        int     `json:"streams"`
	WallS          float64 `json:"wall_s"`
	StreamsPerSec  float64 `json:"streams_per_sec"`
	FramesDecoded  int     `json:"frames_decoded"`
	BytesPerStream float64 `json:"bytes_per_stream"`
	P50DecodeMS    float64 `json:"p50_decode_ms"`
	P99DecodeMS    float64 `json:"p99_decode_ms"`
}

// streamFlatnessBudget is the allowed growth in per-stream resident
// bytes when the stream count doubles.
const streamFlatnessBudget = 1.5

// benchSynthCfg is the stream workload: 8 kHz, 2 kHz carrier,
// 500 bit/s (16 samples per bit) — small enough that thousands of
// concurrent decode windows fit comfortably in memory.
func benchSynthCfg() stream.SynthConfig {
	return stream.SynthConfig{
		SampleRate:  8000,
		CarrierHz:   2000,
		BitrateBps:  500,
		LeadSamples: 1200,
		TailSamples: 600,
	}
}

// runStream sweeps n and 2n concurrent streams and assembles the
// report.
func runStream(n int) (*StreamReport, error) {
	rep := &StreamReport{Streams: n}
	for _, count := range []int{n, 2 * n} {
		run, err := benchStreams(count)
		if err != nil {
			return nil, fmt.Errorf("%d streams: %w", count, err)
		}
		rep.Runs = append(rep.Runs, *run)
	}
	if rep.Runs[0].BytesPerStream > 0 {
		rep.FlatnessX = rep.Runs[1].BytesPerStream / rep.Runs[0].BytesPerStream
	}
	return rep, nil
}

// benchStreams runs count concurrent streams, each decoding one
// synthetic packet, and measures throughput, per-stream resident
// bytes, and decode latency.
//
// Each stream feeds in two phases. Phase 1 delivers everything except
// the packet tail, so every decode window is parked holding a
// packet's worth of carried state; heap is measured there (after a
// GC), which is exactly the daemon's steady-state cost per client.
// Phase 2 delivers the tail; the frame surfaces during that write (or
// the explicit flush), and its wall time is the decode latency — how
// long a client waits for the frame row once the closing samples
// arrive. Phase 2 runs on GOMAXPROCS workers, so each decode is timed
// on a CPU of its own rather than sharing one with every other
// stream's.
func benchStreams(count int) (*StreamRun, error) {
	sc := benchSynthCfg()
	rec, err := stream.SynthesizeRecording(sc, frame.DataFrame{
		Source: 0x42, Seq: 1, Payload: []byte("bench-01"),
	})
	if err != nil {
		return nil, err
	}
	// Just short of the packet's last sample, so the window buffers
	// nearly the whole packet without reaching the decode trigger
	// (candidate start + max packet extent); the frame then surfaces
	// in the first phase-2 write.
	cut := len(rec) - sc.TailSamples - 64

	hub := streamd.NewHub(streamd.Config{
		Decoder: stream.Config{
			SampleRate:      sc.SampleRate,
			CarrierHz:       sc.CarrierHz,
			BitrateBps:      sc.BitrateBps,
			BlockSize:       256,
			MaxPayloadBytes: 8,
		},
		MaxStreams: count + 8,
	})
	drained := false
	drain := func() error {
		if drained {
			return nil
		}
		drained = true
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		return hub.Drain(ctx)
	}
	defer drain()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	sessions := make([]*streamd.Session, count)
	errs := make(chan error, count)
	var wg sync.WaitGroup

	// Phase 1: open every stream and park a full packet in its window.
	phase1 := time.Now()
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := hub.Open(streamd.FormatF64LE, nil)
			if err != nil {
				errs <- err
				return
			}
			sessions[i] = s
			early, err := s.WriteSamples(rec[:cut])
			if err != nil {
				errs <- err
			} else if len(early) > 0 {
				errs <- fmt.Errorf("frame decoded before the packet tail was delivered; lower cut")
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(phase1)
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	runtime.GC()
	var loaded runtime.MemStats
	runtime.ReadMemStats(&loaded)
	perStream := 0.0
	if loaded.HeapAlloc > before.HeapAlloc {
		perStream = float64(loaded.HeapAlloc-before.HeapAlloc) / float64(count)
	}

	// Phase 2: deliver the tails; time each stream's first frame.
	latencies := make([]float64, count)
	frames := make([]int, count)
	next := make(chan int, count)
	for i := range sessions {
		next <- i
	}
	close(next)
	phase2 := time.Now()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := sessions[i]
				t0 := time.Now()
				got, err := s.WriteSamples(rec[cut:])
				if err != nil {
					errs <- err
					return
				}
				if len(got) == 0 {
					flushed, ferr := s.Flush()
					if ferr != nil {
						errs <- ferr
						return
					}
					got = flushed
				}
				latencies[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				frames[i] = len(got)
			}
		}()
	}
	wg.Wait()
	wall += time.Since(phase2)
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	decoded := 0
	for i, n := range frames {
		if n != 1 {
			return nil, fmt.Errorf("stream %d decoded %d frames, want 1", i, n)
		}
		decoded += n
	}
	for _, s := range sessions {
		if _, err := hub.Close(s.ID); err != nil {
			return nil, err
		}
	}
	if err := drain(); err != nil {
		return nil, err
	}

	sort.Float64s(latencies)
	return &StreamRun{
		Streams:        count,
		WallS:          wall.Seconds(),
		StreamsPerSec:  float64(count) / wall.Seconds(),
		FramesDecoded:  decoded,
		BytesPerStream: perStream,
		P50DecodeMS:    prof.PercentileSorted(latencies, 50),
		P99DecodeMS:    prof.PercentileSorted(latencies, 99),
	}, nil
}

// CheckStream gates a fresh report against a baseline, mirroring
// pabprof -check: every problem is one line, and any problem fails
// the run. The internal invariants (every stream decodes, memory
// flatness) are checked even without a baseline.
func (r *StreamReport) CheckStream(base *StreamReport, maxRegress float64) []string {
	var problems []string
	for _, run := range r.Runs {
		if run.FramesDecoded != run.Streams {
			problems = append(problems,
				fmt.Sprintf("%d streams: decoded %d frames, want one per stream", run.Streams, run.FramesDecoded))
		}
	}
	if r.FlatnessX > streamFlatnessBudget {
		problems = append(problems,
			fmt.Sprintf("per-stream bytes grew %.2fx when stream count doubled (budget %.1fx)",
				r.FlatnessX, streamFlatnessBudget))
	}
	if base == nil {
		return problems
	}
	// Runs pair by position (the N run, then the 2N run) so a CI sweep
	// can gate at a smaller -streams than the committed baseline:
	// bytes/stream and decode latency are per-stream quantities and
	// comparable across counts.
	for i, b := range base.Runs {
		if i >= len(r.Runs) {
			problems = append(problems,
				fmt.Sprintf("baseline has %d runs, this report %d", len(base.Runs), len(r.Runs)))
			break
		}
		cur := &r.Runs[i]
		if b.StreamsPerSec > 0 && cur.StreamsPerSec < b.StreamsPerSec/maxRegress {
			problems = append(problems,
				fmt.Sprintf("run %d (%d streams): %.1f streams/sec vs baseline %.1f (budget %.1fx)",
					i, cur.Streams, cur.StreamsPerSec, b.StreamsPerSec, maxRegress))
		}
		if b.BytesPerStream > 0 && cur.BytesPerStream > b.BytesPerStream*maxRegress {
			problems = append(problems,
				fmt.Sprintf("run %d (%d streams): %.0f bytes/stream vs baseline %.0f (budget %.1fx)",
					i, cur.Streams, cur.BytesPerStream, b.BytesPerStream, maxRegress))
		}
		if cur.P50DecodeMS > streamLatencyFloorMS && b.P50DecodeMS > 0 &&
			cur.P50DecodeMS > b.P50DecodeMS*maxRegress {
			problems = append(problems,
				fmt.Sprintf("run %d (%d streams): p50 decode %.2fms vs baseline %.2fms (budget %.1fx)",
					i, cur.Streams, cur.P50DecodeMS, b.P50DecodeMS, maxRegress))
		}
	}
	return problems
}
