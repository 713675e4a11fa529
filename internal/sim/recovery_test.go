package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pab/internal/scenario"
	"pab/internal/telemetry"
	"pab/internal/wal"
)

// newDurableScheduler builds a scheduler over a WAL store in dir. The
// caller owns shutdown/close ordering — crash tests deliberately close
// the store first so post-crash transitions never reach the log.
func newDurableScheduler(t *testing.T, dir string, cfg Config, run Runner) (*Scheduler, *Store, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	st, err := OpenStore(wal.Options{Dir: dir, Fsync: wal.FsyncNever, Registry: reg})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	cfg.Registry = reg
	cfg.Store = st
	s, err := New(cfg, run)
	if err != nil {
		st.Close()
		t.Fatalf("New: %v", err)
	}
	return s, st, reg
}

// crash simulates kill -9 as closely as a unit test can: the store
// closes first, so the shutdown that follows cannot record any of its
// cancellations — the WAL keeps the pre-crash state.
func crash(t *testing.T, s *Scheduler, st *Store) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// shutdownClean drains the scheduler, then closes the store, so
// terminal records land in the WAL.
func shutdownClean(t *testing.T, s *Scheduler, st *Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
}

// TestReplayRequeuesPending: jobs queued or running at crash time
// re-enqueue on restart and run to completion.
func TestReplayRequeuesPending(t *testing.T) {
	dir := t.TempDir()
	g := newGate()
	s1, st1, _ := newDurableScheduler(t, dir, Config{Workers: 1, QueueDepth: 16}, g.run)

	var ids []string
	for seed := int64(1); seed <= 5; seed++ {
		v, err := s1.Submit(chaosSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	waitBusy(t, s1, 1) // one job reached a worker; none released
	crash(t, s1, st1)

	s2, st2, reg := newDurableScheduler(t, dir, Config{Workers: 2, QueueDepth: 16}, instantRunner)
	defer shutdownClean(t, s2, st2)
	if n := reg.Counter(telemetry.MSimWalReplayedJobsTotal).Value(); n != 5 {
		t.Fatalf("replayed jobs = %d, want 5", n)
	}
	for _, id := range ids {
		if v := waitTerminal(t, s2, id); v.State != JobDone {
			t.Fatalf("job %s replayed to %s, want done", id[:12], v.State)
		}
	}
}

// TestReplayServesDoneFromCache: completed work survives a restart as
// a cache hit — the physics never re-runs.
func TestReplayServesDoneFromCache(t *testing.T) {
	dir := t.TempDir()
	s1, st1, _ := newDurableScheduler(t, dir, Config{Workers: 2}, instantRunner)
	v, err := s1.Submit(chaosSpec(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s1, v.ID)
	shutdownClean(t, s1, st1)

	var runs int
	countingRunner := func(context.Context, scenario.Spec) (json.RawMessage, error) {
		runs++
		return json.RawMessage(`{"rerun":true}`), nil
	}
	s2, st2, reg := newDurableScheduler(t, dir, Config{Workers: 2}, countingRunner)
	defer shutdownClean(t, s2, st2)
	if n := reg.Counter(telemetry.MSimWalReplayedResultsTotal).Value(); n != 1 {
		t.Fatalf("replayed results = %d, want 1", n)
	}
	v2, err := s2.Submit(chaosSpec(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached || v2.State != JobDone {
		t.Fatalf("resubmission after restart: cached=%v state=%s, want cache hit", v2.Cached, v2.State)
	}
	if _, result, ok := s2.Result(v.ID); !ok || string(result) != `{"ok":true}` {
		t.Fatalf("replayed result = %q, ok=%v; want original payload", result, ok)
	}
	if runs != 0 {
		t.Fatalf("runner invoked %d times for completed work", runs)
	}
}

// TestDurableSweepReplaysEveryResult runs a sweep of real chaos
// scenarios on a worker pool over an interval-fsync WAL, shuts down
// cleanly, and reopens: every result comes back from the log, byte for
// byte, and every resubmission is a cache hit that runs nothing.
func TestDurableSweepReplaysEveryResult(t *testing.T) {
	const jobs = 30
	dir := t.TempDir()
	open := func(run Runner) (*Scheduler, *Store, *telemetry.Registry) {
		t.Helper()
		reg := telemetry.NewRegistry()
		st, err := OpenStore(wal.Options{Dir: dir, Fsync: wal.FsyncInterval, Registry: reg})
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		s, err := New(Config{Workers: 4, QueueDepth: jobs, CacheEntries: jobs, Registry: reg, Store: st}, run)
		if err != nil {
			st.Close()
			t.Fatalf("New: %v", err)
		}
		return s, st, reg
	}

	s1, st1, _ := open(ScenarioRunner)
	var ids []string
	for seed := int64(1); seed <= jobs; seed++ {
		v, err := s1.Submit(chaosSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	results := make(map[string]string, jobs)
	for _, id := range ids {
		if v := waitTerminal(t, s1, id); v.State != JobDone {
			t.Fatalf("job %s ended %s (%s), want done", id[:12], v.State, v.Error)
		}
		_, result, ok := s1.Result(id)
		if !ok {
			t.Fatalf("job %s: no result", id[:12])
		}
		results[id] = string(result)
	}
	shutdownClean(t, s1, st1)

	var runs atomic.Int32
	s2, st2, reg := open(func(context.Context, scenario.Spec) (json.RawMessage, error) {
		runs.Add(1)
		return json.RawMessage(`{"rerun":true}`), nil
	})
	defer shutdownClean(t, s2, st2)
	if n := reg.Counter(telemetry.MSimWalReplayedResultsTotal).Value(); n != jobs {
		t.Fatalf("replayed results = %d, want %d", n, jobs)
	}
	for seed := int64(1); seed <= jobs; seed++ {
		v, err := s2.Submit(chaosSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Cached || v.State != JobDone {
			t.Fatalf("seed %d after restart: cached=%v state=%s, want a cache hit", seed, v.Cached, v.State)
		}
		if _, result, ok := s2.Result(v.ID); !ok || string(result) != results[v.ID] {
			t.Fatalf("seed %d: replayed result %q, ok=%v; want the first run's %q", seed, result, ok, results[v.ID])
		}
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("runner invoked %d times for replayed work", n)
	}
}

// TestRetryExhaustsToDeadLetter: a persistently failing job burns its
// attempt budget through backoff and lands on the dead-letter list.
func TestRetryExhaustsToDeadLetter(t *testing.T) {
	failing := func(context.Context, scenario.Spec) (json.RawMessage, error) {
		return nil, errors.New("boom")
	}
	s, reg := newTestScheduler(t, Config{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond},
	}, failing)

	v, err := s.Submit(chaosSpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, v.ID)
	if final.State != JobFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Attempt != 3 {
		t.Fatalf("attempt = %d, want 3 (budget exhausted)", final.Attempt)
	}
	if final.Class != string(FailRuntime) {
		t.Fatalf("class = %q, want runtime", final.Class)
	}
	if n := reg.Counter(telemetry.MSimJobsRetriedTotal).Value(); n != 2 {
		t.Fatalf("retries = %d, want 2", n)
	}
	dead := s.DeadLetters()
	if len(dead) != 1 || dead[0].ID != v.ID {
		t.Fatalf("dead letters = %+v, want the one exhausted job", dead)
	}
	if st := s.Stats(); st.DeadLetters != 1 {
		t.Fatalf("Stats.DeadLetters = %d, want 1", st.DeadLetters)
	}
}

// TestRetrySucceedsSecondAttempt: one transient failure, then success
// — the retry path must converge to done, not dead-letter.
func TestRetrySucceedsSecondAttempt(t *testing.T) {
	var mu sync.Mutex
	failed := map[int64]bool{}
	flaky := func(_ context.Context, sp scenario.Spec) (json.RawMessage, error) {
		mu.Lock()
		defer mu.Unlock()
		if !failed[sp.Seed] {
			failed[sp.Seed] = true
			return nil, errors.New("transient")
		}
		return json.RawMessage(fmt.Sprintf(`{"seed":%d}`, sp.Seed)), nil
	}
	s, reg := newTestScheduler(t, Config{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond},
	}, flaky)

	v, err := s.Submit(chaosSpec(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, v.ID)
	if final.State != JobDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if final.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", final.Attempt)
	}
	if n := reg.Counter(telemetry.MSimJobsRetriedTotal).Value(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
	if len(s.DeadLetters()) != 0 {
		t.Fatal("successful retry must not dead-letter")
	}
}

// TestShedLowestPriority: past the high-water mark, a higher-priority
// submission evicts the lowest-priority queued job instead of
// bouncing.
func TestShedLowestPriority(t *testing.T) {
	g := newGate()
	s, reg := newTestScheduler(t, Config{
		Workers:       1,
		QueueDepth:    4,
		ShedHighWater: 0.5, // arms at 2 queued
	}, g.run)
	defer close(g.release)

	running, err := s.Submit(chaosSpec(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, s, 1)

	var queued []JobView
	for seed := int64(1); seed <= 4; seed++ {
		v, err := s.Submit(chaosSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, v)
	}
	// Queue is now full (4/4). Equal priority must still bounce: the
	// shedding tier only fires for strictly higher priority.
	if _, err := s.Submit(chaosSpec(50), 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("equal-priority submit past full queue = %v, want ErrQueueFull", err)
	}

	urgent, err := s.Submit(chaosSpec(99), 5)
	if err != nil {
		t.Fatalf("high-priority submit should shed, got %v", err)
	}
	if urgent.State != JobQueued {
		t.Fatalf("urgent job state = %s, want queued", urgent.State)
	}
	if n := reg.Counter(telemetry.MSimJobsShedTotal).Value(); n != 1 {
		t.Fatalf("shed total = %d, want 1", n)
	}
	// The victim is the most recently queued of the lowest-priority
	// tier, terminal with class "shed".
	victim := queued[3]
	vv, err := s.Job(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if vv.State != JobFailed || vv.Class != string(FailShed) {
		t.Fatalf("victim state=%s class=%s, want failed/shed", vv.State, vv.Class)
	}
	dead := s.DeadLetters()
	if len(dead) != 1 || dead[0].ID != victim.ID {
		t.Fatalf("dead letters = %+v, want shed victim", dead)
	}
	_ = running
}

// TestCrashMidBackoffReplaysPending: a job parked in retry backoff at
// crash time replays as pending with its attempt count intact.
func TestCrashMidBackoffReplaysPending(t *testing.T) {
	dir := t.TempDir()
	failing := func(context.Context, scenario.Spec) (json.RawMessage, error) {
		return nil, errors.New("boom")
	}
	s1, st1, _ := newDurableScheduler(t, dir, Config{
		Workers: 1,
		// Backoff far longer than the test: the job stays parked.
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Hour, MaxBackoff: time.Hour},
	}, failing)

	v, err := s1.Submit(chaosSpec(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, err := s1.Job(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == JobRetrying {
			if cur.NextRetryAt == nil || cur.Attempt != 2 {
				t.Fatalf("retrying view = %+v, want attempt 2 with NextRetryAt", cur)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached retrying (state %s)", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	crash(t, s1, st1)

	s2, st2, _ := newDurableScheduler(t, dir, Config{Workers: 1}, instantRunner)
	defer shutdownClean(t, s2, st2)
	final := waitTerminal(t, s2, v.ID)
	if final.State != JobDone {
		t.Fatalf("replayed retry state = %s, want done", final.State)
	}
	if final.Attempt != 2 {
		t.Fatalf("replayed attempt = %d, want 2 (preserved across crash)", final.Attempt)
	}
}

// TestCompactionPreservesState: once the WAL passes its high-water
// size the scheduler compacts it, and a restart still sees every
// completed result.
func TestCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	s1, st1, reg := newDurableScheduler(t, dir, Config{
		Workers:      2,
		CacheEntries: 64,
		CompactBytes: 4096,
	}, instantRunner)

	var ids []string
	for seed := int64(1); seed <= 32; seed++ {
		v, err := s1.Submit(chaosSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		waitTerminal(t, s1, v.ID)
	}
	if n := reg.Counter(telemetry.MWalCompactionsTotal).Value(); n < 1 {
		t.Fatalf("compactions = %d, want ≥1 (wal bytes %d)", n, st1.Stats().TotalBytes)
	}
	shutdownClean(t, s1, st1)

	s2, st2, reg2 := newDurableScheduler(t, dir, Config{Workers: 2, CacheEntries: 64}, instantRunner)
	defer shutdownClean(t, s2, st2)
	if n := reg2.Counter(telemetry.MSimWalReplayedResultsTotal).Value(); n != 32 {
		t.Fatalf("replayed results after compaction = %d, want 32", n)
	}
	for _, id := range ids {
		if _, _, ok := s2.Result(id); !ok {
			t.Fatalf("result %s lost across compaction + restart", id[:12])
		}
	}
}

// TestDurabilityRejection: once the store cannot append, submissions
// fail with ErrDurability instead of being accepted un-durably.
func TestDurabilityRejection(t *testing.T) {
	dir := t.TempDir()
	s, st, _ := newDurableScheduler(t, dir, Config{Workers: 1}, instantRunner)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(chaosSpec(1), 0)
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("submit with dead store = %v, want ErrDurability", err)
	}
}

// TestAuditWAL: a clean lifecycle audits green; every job terminal,
// no violations.
func TestAuditWAL(t *testing.T) {
	dir := t.TempDir()
	s, st, _ := newDurableScheduler(t, dir, Config{Workers: 2}, instantRunner)
	var ids []string
	for seed := int64(1); seed <= 8; seed++ {
		v, err := s.Submit(chaosSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitTerminal(t, s, id)
	}
	shutdownClean(t, s, st)

	rep, err := AuditWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Jobs != 8 || rep.Done != 8 || rep.Pending != 0 {
		t.Fatalf("audit = %+v, want 8 jobs all done", rep)
	}
}
