package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pab/internal/scenario"
	"pab/internal/telemetry"
)

// chaosSpec returns a cheap, valid spec whose seed distinguishes it
// from other test specs.
func chaosSpec(seed int64) scenario.Spec {
	return scenario.Spec{Kind: scenario.KindChaos, Seed: seed, MAC: scenario.MACSpec{DurationS: 5}}
}

// instantRunner completes immediately with a fixed payload.
func instantRunner(context.Context, scenario.Spec) (json.RawMessage, error) {
	return json.RawMessage(`{"ok":true}`), nil
}

// gate is a runner whose jobs block until released, recording the
// order specs reached a worker.
type gate struct {
	mu      sync.Mutex
	order   []int64
	release chan struct{}
}

func newGate() *gate { return &gate{release: make(chan struct{})} }

func (g *gate) run(ctx context.Context, sp scenario.Spec) (json.RawMessage, error) {
	g.mu.Lock()
	g.order = append(g.order, sp.Seed)
	g.mu.Unlock()
	select {
	case <-g.release:
		return json.RawMessage(fmt.Sprintf(`{"seed":%d}`, sp.Seed)), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (g *gate) seen() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int64(nil), g.order...)
}

func newTestScheduler(t *testing.T, cfg Config, run Runner) (*Scheduler, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Registry = reg
	s, err := New(cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, reg
}

func waitTerminal(t *testing.T, s *Scheduler, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return v
}

// TestCacheHitViaTelemetry is the acceptance check: submitting the
// same scenario twice runs it once, with the second submission served
// from the content-addressed cache — verified through the registry's
// hit/miss counters.
func TestCacheHitViaTelemetry(t *testing.T) {
	s, reg := newTestScheduler(t, Config{Workers: 2}, instantRunner)

	v1, err := s.Submit(chaosSpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Cached {
		t.Fatal("first submission must not be cached")
	}
	waitTerminal(t, s, v1.ID)

	v2, err := s.Submit(chaosSpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached || v2.State != JobDone {
		t.Fatalf("second submission = %+v, want cached done view", v2)
	}
	if v2.ID != v1.ID {
		t.Fatalf("hash drift: %s vs %s", v1.ID, v2.ID)
	}
	if hits := reg.Counter(telemetry.MSimCacheHitsTotal).Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if misses := reg.Counter(telemetry.MSimCacheMissesTotal).Value(); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
	if ran := reg.Counter(telemetry.MSimJobsCompletedTotal).Value(); ran != 1 {
		t.Errorf("jobs completed = %d, want exactly 1 (cache absorbed the repeat)", ran)
	}
	if _, result, ok := s.Result(v1.ID); !ok || string(result) != `{"ok":true}` {
		t.Errorf("Result = %s, %v", result, ok)
	}
}

// TestDedupInFlight: a spec already queued or running is joined, not
// re-run.
func TestDedupInFlight(t *testing.T) {
	g := newGate()
	s, reg := newTestScheduler(t, Config{Workers: 1}, g.run)

	v1, err := s.Submit(chaosSpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Submit(chaosSpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID != v1.ID || v2.Cached {
		t.Fatalf("dedup view = %+v", v2)
	}
	if n := reg.Counter(telemetry.MSimJobsDedupedTotal).Value(); n != 1 {
		t.Errorf("deduped = %d, want 1", n)
	}
	close(g.release)
	waitTerminal(t, s, v1.ID)
	if n := reg.Counter(telemetry.MSimJobsCompletedTotal).Value(); n != 1 {
		t.Errorf("completed = %d, want 1", n)
	}
}

// TestQueueFullBackpressure: the bounded queue rejects with
// ErrQueueFull once depth is reached, and RetryAfter advertises a
// sane wait.
func TestQueueFullBackpressure(t *testing.T) {
	g := newGate()
	s, reg := newTestScheduler(t, Config{Workers: 1, QueueDepth: 1}, g.run)

	// First job occupies the worker...
	if _, err := s.Submit(chaosSpec(1), 0); err != nil {
		t.Fatal(err)
	}
	waitBusy(t, s, 1)
	// ...second fills the queue...
	if _, err := s.Submit(chaosSpec(2), 0); err != nil {
		t.Fatal(err)
	}
	// ...third must bounce.
	_, err := s.Submit(chaosSpec(3), 0)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if n := reg.Counter(telemetry.MSimJobsRejectedTotal).Value(); n != 1 {
		t.Errorf("rejected = %d, want 1", n)
	}
	if ra := s.RetryAfter(); ra < time.Second || ra > 30*time.Second {
		t.Errorf("RetryAfter = %v, want within [1s, 30s]", ra)
	}
	close(g.release)
}

func waitBusy(t *testing.T, s *Scheduler, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Busy != want {
		if time.Now().After(deadline) {
			t.Fatalf("busy never reached %d (stats %+v)", want, s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPriorityOrder: with one worker pinned, a high-priority late
// arrival runs before an earlier low-priority job.
func TestPriorityOrder(t *testing.T) {
	g := newGate()
	s, _ := newTestScheduler(t, Config{Workers: 1, QueueDepth: 8}, g.run)

	pin, err := s.Submit(chaosSpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, s, 1)
	low, err := s.Submit(chaosSpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(chaosSpec(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	close(g.release)
	waitTerminal(t, s, pin.ID)
	waitTerminal(t, s, low.ID)
	waitTerminal(t, s, high.ID)
	order := g.seen()
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 2 {
		t.Errorf("execution order = %v, want [1 3 2]", order)
	}
}

// TestCancel covers both queued-job removal and running-job
// interruption.
func TestCancel(t *testing.T) {
	g := newGate()
	s, reg := newTestScheduler(t, Config{Workers: 1, QueueDepth: 8}, g.run)

	running, err := s.Submit(chaosSpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, s, 1)
	queued, err := s.Submit(chaosSpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}

	if !s.Cancel(queued.ID) {
		t.Fatal("cancel of a queued job returned false")
	}
	if v := waitTerminal(t, s, queued.ID); v.State != JobCanceled {
		t.Errorf("queued job state = %s, want canceled", v.State)
	}
	if !s.Cancel(running.ID) {
		t.Fatal("cancel of a running job returned false")
	}
	if v := waitTerminal(t, s, running.ID); v.State != JobCanceled {
		t.Errorf("running job state = %s, want canceled", v.State)
	}
	if s.Cancel("deadbeef") {
		t.Error("cancel of an unknown job returned true")
	}
	if n := reg.Counter(telemetry.MSimJobsCanceledTotal).Value(); n != 2 {
		t.Errorf("canceled = %d, want 2", n)
	}
	// A canceled spec resubmits as a fresh run, not a cache hit.
	v, err := s.Submit(chaosSpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cached || v.State.Terminal() {
		t.Errorf("resubmitted canceled spec = %+v, want fresh queued job", v)
	}
	close(g.release)
}

// TestJobTimeout: a job past its deadline fails, frees the worker and
// bumps the timeout counter.
func TestJobTimeout(t *testing.T) {
	block := func(ctx context.Context, _ scenario.Spec) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s, reg := newTestScheduler(t, Config{Workers: 1, JobTimeout: 30 * time.Millisecond}, block)

	v, err := s.Submit(chaosSpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, v.ID)
	if final.State != JobFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if n := reg.Counter(telemetry.MSimJobsTimedOutTotal).Value(); n != 1 {
		t.Errorf("timed out = %d, want 1", n)
	}
	// The worker must be free for the next job.
	v2, err := s.Submit(chaosSpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v2.State.Terminal() {
		t.Fatalf("second job unexpectedly terminal: %+v", v2)
	}
}

// TestRunnerError: a runner failure lands in JobFailed with the error
// preserved for status queries.
func TestRunnerError(t *testing.T) {
	boom := func(context.Context, scenario.Spec) (json.RawMessage, error) {
		return nil, errors.New("hydrophone unplugged")
	}
	s, reg := newTestScheduler(t, Config{Workers: 1}, boom)
	v, err := s.Submit(chaosSpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, v.ID)
	if final.State != JobFailed || final.Error != "hydrophone unplugged" {
		t.Errorf("final = %+v", final)
	}
	if n := reg.Counter(telemetry.MSimJobsFailedTotal).Value(); n != 1 {
		t.Errorf("failed = %d, want 1", n)
	}
	if _, _, ok := s.Result(v.ID); ok {
		t.Error("failed job must not populate the result cache")
	}
}

// TestShutdownDrains: shutdown stops intake, cancels queued jobs and
// lets the in-flight one finish.
func TestShutdownDrains(t *testing.T) {
	g := newGate()
	reg := telemetry.NewRegistry()
	s, err := New(Config{Workers: 1, QueueDepth: 8, Registry: reg}, g.run)
	if err != nil {
		t.Fatal(err)
	}
	inflight, err := s.Submit(chaosSpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, s, 1)
	queued, err := s.Submit(chaosSpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Give Shutdown a moment to close intake, then release the worker.
	if _, err := pollUntilRejected(s); err == nil {
		t.Fatal("intake stayed open during shutdown")
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if v, err := s.Job(inflight.ID); err != nil || v.State != JobDone {
		t.Errorf("in-flight job = %+v, %v; want done", v, err)
	}
	if v, err := s.Job(queued.ID); err != nil || v.State != JobCanceled {
		t.Errorf("queued job = %+v, %v; want canceled", v, err)
	}
}

// pollUntilRejected submits probes until one is refused (shutdown
// visible) or times out.
func pollUntilRejected(s *Scheduler) (JobView, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := s.Submit(chaosSpec(999), 0)
		if err != nil {
			return JobView{}, err
		}
		if time.Now().After(deadline) {
			return v, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownDeadline: a drain that overruns its context force-
// cancels the stuck job and reports the context error.
func TestShutdownDeadline(t *testing.T) {
	stuck := func(ctx context.Context, _ scenario.Spec) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s, err := New(Config{Workers: 1, Registry: telemetry.NewRegistry()}, stuck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(chaosSpec(1), 0); err != nil {
		t.Fatal(err)
	}
	waitBusy(t, s, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
}

// TestSubmitBatch covers atomic acceptance, in-batch dedup and the
// all-or-nothing capacity check.
func TestSubmitBatch(t *testing.T) {
	g := newGate()
	s, _ := newTestScheduler(t, Config{Workers: 1, QueueDepth: 2}, g.run)

	// Duplicate specs inside one batch occupy one slot.
	batch, views, err := s.SubmitBatch([]scenario.Spec{chaosSpec(1), chaosSpec(1), chaosSpec(2)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 || len(batch.JobIDs) != 3 {
		t.Fatalf("batch views = %d, ids = %d; want 3/3", len(views), len(batch.JobIDs))
	}
	if views[0].ID != views[1].ID {
		t.Error("duplicate specs got different job ids")
	}
	got, ok := s.BatchOf(batch.ID)
	if !ok || len(got.JobIDs) != 3 {
		t.Fatalf("BatchOf = %+v, %v", got, ok)
	}

	// Queue now holds one job (seed 2) with the worker on seed 1: a
	// 3-new-spec batch cannot fit and must be rejected whole.
	waitBusy(t, s, 1)
	before := s.Stats().Queued
	_, _, err = s.SubmitBatch([]scenario.Spec{chaosSpec(10), chaosSpec(11), chaosSpec(12)}, 0)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversize batch err = %v, want ErrQueueFull", err)
	}
	if after := s.Stats().Queued; after != before {
		t.Errorf("rejected batch changed queue depth %d -> %d", before, after)
	}
	// Identical sweep resubmission addresses the same batch.
	batch2, _, err := s.SubmitBatch([]scenario.Spec{chaosSpec(1), chaosSpec(1), chaosSpec(2)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if batch2.ID != batch.ID {
		t.Errorf("batch id not content-addressed: %s vs %s", batch2.ID, batch.ID)
	}
	close(g.release)
}

// TestSubmitInvalidSpec: validation failures surface at submission,
// not execution.
func TestSubmitInvalidSpec(t *testing.T) {
	s, _ := newTestScheduler(t, Config{Workers: 1}, instantRunner)
	bad := scenario.Spec{Kind: "quantum"}
	if _, err := s.Submit(bad, 0); err == nil {
		t.Fatal("want validation error")
	}
	if _, _, err := s.SubmitBatch([]scenario.Spec{bad}, 0); err == nil {
		t.Fatal("want batch validation error")
	}
	if _, _, err := s.SubmitBatch(nil, 0); err == nil {
		t.Fatal("want empty-batch error")
	}
}

// TestWaitUnknown: waiting on a never-submitted id fails fast.
func TestWaitUnknown(t *testing.T) {
	s, _ := newTestScheduler(t, Config{Workers: 1}, instantRunner)
	if _, err := s.Wait(context.Background(), "deadbeef"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
	if _, err := s.Job("deadbeef"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

// TestLRUEviction: the cache stays bounded and evictions are counted.
func TestLRUEviction(t *testing.T) {
	s, reg := newTestScheduler(t, Config{Workers: 1, CacheEntries: 2}, instantRunner)
	ids := make([]string, 3)
	for i := range ids {
		v, err := s.Submit(chaosSpec(int64(i+1)), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, v.ID)
		ids[i] = v.ID
	}
	if n := s.Stats().CacheSize; n != 2 {
		t.Errorf("cache size = %d, want 2", n)
	}
	if n := reg.Counter(telemetry.MSimCacheEvictionsTotal).Value(); n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
	if _, _, ok := s.Result(ids[0]); ok {
		t.Error("oldest entry should have been evicted")
	}
	if _, _, ok := s.Result(ids[2]); !ok {
		t.Error("newest entry should be cached")
	}
}
