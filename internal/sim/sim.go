// Package sim turns the one-shot simulator into a servable system: a
// job scheduler that accepts scenario specs (pab/internal/scenario),
// deduplicates them by content hash, queues them through a bounded
// priority queue into a worker pool, caches results in a
// content-addressed LRU, and reports every stage through the telemetry
// registry. cmd/pabd wraps it in an HTTP API (server.go).
//
// Flow control is explicit: a full queue rejects with ErrQueueFull
// (the HTTP layer maps it to 429 + Retry-After) rather than queueing
// unboundedly, and Shutdown stops intake, cancels queued jobs and
// drains in-flight ones — the SIGTERM path. Past a configurable
// high-water mark a second tier kicks in: an incoming job that
// outranks the lowest-priority queued job sheds it instead of being
// rejected, so urgent work still lands under pressure.
//
// With a Store configured (store.go, over internal/wal), the lifecycle
// is durable: every transition is logged before it takes effect, a
// restarted scheduler replays the log — completed jobs repopulate the
// result cache, unfinished ones re-enqueue — and retryably-failed jobs
// re-run under a bounded backoff budget before dead-lettering.
package sim

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pab/internal/prof"
	"pab/internal/scenario"
	"pab/internal/telemetry"
	"pab/internal/wal"
)

// Runner executes one scenario and returns its result as JSON. The
// context carries the per-job timeout and cancellation.
type Runner func(ctx context.Context, spec scenario.Spec) (json.RawMessage, error)

// ScenarioRunner is the production Runner: scenario.Run serialized.
func ScenarioRunner(ctx context.Context, spec scenario.Spec) (json.RawMessage, error) {
	res, err := scenario.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// JobState is the lifecycle of a job.
type JobState string

// Job lifecycle states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobRetrying JobState = "retrying" // failed retryably; waiting out backoff
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobView is a point-in-time snapshot of a job, safe to serialize.
type JobView struct {
	// ID is the scenario's canonical content hash.
	ID       string   `json:"id"`
	Name     string   `json:"name,omitempty"`
	Kind     string   `json:"kind"`
	State    JobState `json:"state"`
	Cached   bool     `json:"cached"`
	Priority int      `json:"priority"`
	Error    string   `json:"error,omitempty"`
	// Attempt is 1 for the first run and increments per retry.
	Attempt int `json:"attempt,omitempty"`
	// Class types the most recent failure (see FailureClass).
	Class string `json:"failure_class,omitempty"`
	// NextRetryAt is set while the job waits out a retry backoff.
	NextRetryAt *time.Time `json:"next_retry_at,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// QueueWaitS and RunS are filled once the respective phase ends.
	QueueWaitS float64 `json:"queue_wait_s,omitempty"`
	RunS       float64 `json:"run_s,omitempty"`
}

// job is the scheduler's mutable record.
type job struct {
	view       JobView
	spec       scenario.Spec
	seq        uint64
	pos        int // heap index, -1 once popped/removed
	cancel     context.CancelFunc
	done       chan struct{}
	result     json.RawMessage
	retryTimer *time.Timer // live while State == JobRetrying
}

// Errors the scheduler returns for flow control.
var (
	// ErrQueueFull is backpressure: the bounded queue cannot take the
	// job; retry after the window the server advertises.
	ErrQueueFull = errors.New("sim: queue full")
	// ErrShuttingDown rejects submissions after Shutdown began.
	ErrShuttingDown = errors.New("sim: scheduler shutting down")
	// ErrUnknownJob reports a lookup of an ID never submitted (or aged
	// out of the failure history).
	ErrUnknownJob = errors.New("sim: unknown job")
	// ErrDurability reports that the WAL rejected the state transition;
	// the submission was not accepted (the HTTP layer maps it to 503 —
	// accepting work we cannot make durable would break the recovery
	// contract).
	ErrDurability = errors.New("sim: durability failure")
	// errShed is the terminal error of a job evicted by the shedding
	// tier of admission control.
	errShed = errors.New("sim: shed by admission control (queue past high-water mark)")
)

// Config tunes a Scheduler.
type Config struct {
	// Workers is the pool size; 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds queued (not yet running) jobs; 0 selects 64.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache; 0
	// selects 256.
	CacheEntries int
	// JobTimeout bounds one job's run; 0 selects 120 s.
	JobTimeout time.Duration
	// Registry receives queue/cache/latency telemetry; nil selects
	// telemetry.Default().
	Registry *telemetry.Registry

	// Store persists job state transitions for crash recovery; nil
	// keeps the scheduler memory-only (the pre-durability behavior).
	Store *Store
	// Retry bounds re-execution of retryably-failed jobs. The zero
	// value disables retries (MaxAttempts 1).
	Retry RetryPolicy
	// ShedHighWater is the fraction of QueueDepth past which an
	// incoming submission that outranks the lowest-priority queued job
	// sheds it instead of being rejected; 0 selects 0.9, negative
	// disables shedding.
	ShedHighWater float64
	// CompactBytes is the WAL size past which a terminal transition
	// triggers a compaction snapshot; 0 selects 8 MiB. Only meaningful
	// with Store.
	CompactBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 120 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default()
	}
	c.Retry = c.Retry.withDefaults()
	if c.ShedHighWater == 0 {
		c.ShedHighWater = 0.9
	}
	if c.CompactBytes <= 0 {
		c.CompactBytes = 8 << 20
	}
	return c
}

// Scheduler owns the queue, the worker pool and the result cache. All
// methods are safe for concurrent use.
type Scheduler struct {
	cfg Config
	run Runner
	reg *telemetry.Registry

	mu      sync.Mutex
	cond    *sync.Cond
	queue   jobHeap
	jobs    map[string]*job // queued + running
	cache   *lru            // hash → finished successful job
	recent  *history        // failed/canceled views for status queries
	batches *batchStore
	seq     uint64
	closed  bool
	busy    int

	store *Store
	retry RetryPolicy
	rng   *rand.Rand // retry-backoff jitter; guarded by mu
	// dead is the bounded dead-letter list: jobs that exhausted their
	// attempt budget, failed non-retryably or were shed. Exposed over
	// GET /v1/deadletter.
	dead []JobView
	// shedHW is the queue length at which the shedding tier arms.
	shedHW int
	// compactAt is the WAL size that triggers the next compaction; it
	// doubles past the configured floor after each compaction so a log
	// whose live state is genuinely large doesn't thrash.
	compactAt int64

	// avgRunS is an EWMA of job run seconds, feeding Retry-After.
	avgRunS float64

	// slowest holds the worst-N finished jobs by run time, longest
	// first. Job IDs are scenario content hashes, so the table names
	// exactly which specs to replay when hunting a latency outlier
	// (surfaced in /telemetry.json under "sim_slowest_jobs").
	slowest []JobView

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// New builds a Scheduler and starts its worker pool. With a Store
// configured it first replays the WAL: completed jobs prime the result
// cache, unfinished ones re-enqueue (bypassing QueueDepth — they were
// already admitted before the crash).
func New(cfg Config, run Runner) (*Scheduler, error) {
	if run == nil {
		return nil, fmt.Errorf("sim: nil runner")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:        cfg,
		run:        run,
		reg:        cfg.Registry,
		jobs:       make(map[string]*job),
		cache:      newLRU(cfg.CacheEntries),
		recent:     newHistory(512),
		batches:    newBatchStore(128),
		store:      cfg.Store,
		retry:      cfg.Retry,
		rng:        rand.New(rand.NewSource(1)), // deterministic, like every other seed in the tree
		compactAt:  cfg.CompactBytes,
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.shedHW = int(cfg.ShedHighWater * float64(cfg.QueueDepth))
	if cfg.ShedHighWater < 0 {
		s.shedHW = cfg.QueueDepth + 1 // unreachable: shedding disabled
	} else if s.shedHW < 1 {
		s.shedHW = 1
	}
	s.cond = sync.NewCond(&s.mu)
	s.reg.PublishExtra("sim_slowest_jobs", func() any { return s.SlowestJobs() })
	if s.store != nil {
		if err := s.replayStore(); err != nil {
			cancel()
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replayStore folds the WAL back into scheduler state before the
// worker pool starts: done → cache (a later submit of the same spec is
// a replay hit, not a re-run), failed → dead-letter + history,
// canceled → history, everything else → re-enqueued with its attempt
// count preserved.
func (s *Scheduler) replayStore() error {
	sp := s.reg.StartSpan("sim_wal_replay")
	defer sp.End()
	rs, err := s.store.Replay()
	if err != nil {
		return fmt.Errorf("sim: wal replay: %w", err)
	}
	sp.Attr("records", rs.Records).Attr("pending", len(rs.Pending)).
		Attr("done", len(rs.Done)).Attr("dead", len(rs.Dead))

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range rs.Done {
		s.cache.add(d.View.ID, cacheEntry{view: d.View, result: d.Result})
		s.reg.Inc(telemetry.MSimWalReplayedResultsTotal)
	}
	for _, v := range rs.Dead {
		s.recent.put(v)
		s.deadLetterLocked(v)
	}
	for _, v := range rs.Canceled {
		s.recent.put(v)
	}
	for _, p := range rs.Pending {
		s.seq++
		j := &job{
			view: JobView{
				ID:          p.ID,
				Name:        p.Spec.Name,
				Kind:        p.Spec.Kind,
				State:       JobQueued,
				Priority:    p.Priority,
				Attempt:     p.Attempt,
				SubmittedAt: time.Now(),
			},
			spec: p.Spec,
			seq:  s.seq,
			done: make(chan struct{}),
		}
		s.jobs[p.ID] = j
		heap.Push(&s.queue, j)
		s.reg.Inc(telemetry.MSimWalReplayedJobsTotal)
	}
	s.reg.Set(telemetry.MSimQueueDepth, float64(s.queue.Len()))
	return nil
}

// slowestJobsKept bounds the worst-N slowest-jobs table.
const slowestJobsKept = 16

// SlowestJobs returns the worst-N finished jobs by run time, longest
// first.
func (s *Scheduler) SlowestJobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, len(s.slowest))
	copy(out, s.slowest)
	return out
}

// noteSlowLocked files a finished job into the worst-N table. Caller
// holds s.mu; j.view.RunS must be final.
func (s *Scheduler) noteSlowLocked(v JobView) {
	if len(s.slowest) == slowestJobsKept && v.RunS <= s.slowest[len(s.slowest)-1].RunS {
		return
	}
	// Insert sorted (descending RunS); the table is tiny.
	i := len(s.slowest)
	for i > 0 && s.slowest[i-1].RunS < v.RunS {
		i--
	}
	s.slowest = append(s.slowest, JobView{})
	copy(s.slowest[i+1:], s.slowest[i:])
	s.slowest[i] = v
	if len(s.slowest) > slowestJobsKept {
		s.slowest = s.slowest[:slowestJobsKept]
	}
}

// Workers returns the pool size.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// Submit normalizes, validates and enqueues a spec. A spec whose
// result is cached returns immediately with State=JobDone and
// Cached=true; a spec already queued or running returns the live job
// (deduplication); a full queue returns ErrQueueFull.
func (s *Scheduler) Submit(spec scenario.Spec, priority int) (JobView, error) {
	sp := spec.Normalize()
	if err := sp.Validate(); err != nil {
		return JobView{}, err
	}
	id, err := sp.Hash()
	if err != nil {
		return JobView{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.submitLocked(sp, id, priority)
	if err != nil {
		return JobView{}, err
	}
	return v, nil
}

// submitLocked is the single-spec submission path; the caller holds
// s.mu and must have normalized+validated the spec and computed its
// hash.
func (s *Scheduler) submitLocked(sp scenario.Spec, id string, priority int) (JobView, error) {
	if s.closed {
		return JobView{}, ErrShuttingDown
	}
	if e, ok := s.cache.get(id); ok {
		s.reg.Inc(telemetry.MSimCacheHitsTotal)
		v := e.view
		v.Cached = true
		return v, nil
	}
	if j, ok := s.jobs[id]; ok {
		s.reg.Inc(telemetry.MSimJobsDedupedTotal)
		return j.view, nil
	}
	s.reg.Inc(telemetry.MSimCacheMissesTotal)
	// Shedding tier: past the high-water mark, an incoming job that
	// strictly outranks the lowest-priority queued job evicts it rather
	// than bouncing off the depth limit — urgent work lands even under
	// sustained pressure, and the shed job dead-letters for the client
	// to see.
	if s.queue.Len() >= s.shedHW {
		if victim := s.queue.lowest(); victim != nil && priority > victim.view.Priority {
			s.shedLocked(victim)
		}
	}
	if s.queue.Len() >= s.cfg.QueueDepth {
		s.reg.Inc(telemetry.MSimJobsRejectedTotal)
		return JobView{}, ErrQueueFull
	}
	// The WAL write comes first: a job is only accepted once its submit
	// record is durable, so a crash can lose at most work we had not
	// yet acknowledged.
	if s.store != nil {
		if err := s.store.LogSubmit(id, sp, priority, 1); err != nil {
			s.reg.Inc(telemetry.MSimWalAppendErrorsTotal)
			return JobView{}, fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	s.seq++
	j := &job{
		view: JobView{
			ID:          id,
			Name:        sp.Name,
			Kind:        sp.Kind,
			State:       JobQueued,
			Priority:    priority,
			Attempt:     1,
			SubmittedAt: time.Now(),
		},
		spec: sp,
		seq:  s.seq,
		done: make(chan struct{}),
	}
	s.jobs[id] = j
	s.recent.drop(id)
	heap.Push(&s.queue, j)
	s.reg.Inc(telemetry.MSimJobsSubmittedTotal)
	s.reg.Set(telemetry.MSimQueueDepth, float64(s.queue.Len()))
	s.cond.Signal()
	return j.view, nil
}

// Job returns a snapshot of the identified job, looking through the
// live set, the result cache and the recent-failure history.
func (s *Scheduler) Job(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.view, nil
	}
	if e, ok := s.cache.get(id); ok {
		return e.view, nil
	}
	if v, ok := s.recent.get(id); ok {
		return v, nil
	}
	return JobView{}, ErrUnknownJob
}

// Result returns the identified job's result JSON; ok is false until
// the job completes successfully.
func (s *Scheduler) Result(id string) (JobView, json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.cache.get(id); ok {
		return e.view, e.result, true
	}
	return JobView{}, nil, false
}

// Cancel cancels a queued or running job. Canceling an unknown or
// finished job returns false.
func (s *Scheduler) Cancel(id string) bool {
	ok, cancel := s.cancelJob(id)
	if cancel != nil {
		cancel()
	}
	return ok
}

// cancelJob is the locked portion of Cancel: queued and retrying jobs
// finalize immediately; a running job hands back its context cancel
// func to invoke outside the lock.
func (s *Scheduler) cancelJob(id string) (bool, context.CancelFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false, nil
	}
	switch j.view.State {
	case JobQueued:
		s.queue.remove(j)
		s.finalizeLocked(j, JobCanceled, FailCanceled, nil, context.Canceled)
		s.reg.Set(telemetry.MSimQueueDepth, float64(s.queue.Len()))
		return true, nil
	case JobRetrying:
		if j.retryTimer != nil {
			j.retryTimer.Stop()
			j.retryTimer = nil
		}
		s.finalizeLocked(j, JobCanceled, FailCanceled, nil, context.Canceled)
		return true, nil
	case JobRunning:
		return true, j.cancel
	}
	return false, nil
}

// Wait blocks until the job reaches a terminal state (or ctx fires)
// and returns its final view.
func (s *Scheduler) Wait(ctx context.Context, id string) (JobView, error) {
	for {
		v, done, err := s.waitState(id)
		if done == nil {
			return v, err
		}
		select {
		case <-done:
			// Loop to pick the final view out of cache/history.
		case <-ctx.Done():
			return JobView{}, ctx.Err()
		}
	}
}

// waitState snapshots one Wait iteration under the lock: a non-nil
// done channel means the job is still live; otherwise v/err are final
// (from the cache, the recent-history ring, or unknown).
func (s *Scheduler) waitState(id string) (JobView, chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, live := s.jobs[id]; live {
		return JobView{}, j.done, nil
	}
	if e, ok := s.cache.get(id); ok {
		return e.view, nil, nil
	}
	if v, ok := s.recent.get(id); ok {
		return v, nil, nil
	}
	return JobView{}, nil, ErrUnknownJob
}

// Stats is a point-in-time queue summary.
type Stats struct {
	Workers     int        `json:"workers"`
	Busy        int        `json:"busy"`
	Queued      int        `json:"queued"`
	QueueDepth  int        `json:"queue_depth"`
	CacheSize   int        `json:"cache_size"`
	AvgRunS     float64    `json:"avg_run_s"`
	Retrying    int        `json:"retrying,omitempty"`
	DeadLetters int        `json:"dead_letters,omitempty"`
	WAL         *wal.Stats `json:"wal,omitempty"`
}

// Stats snapshots the queue.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:     s.cfg.Workers,
		Busy:        s.busy,
		Queued:      s.queue.Len(),
		QueueDepth:  s.cfg.QueueDepth,
		CacheSize:   s.cache.len(),
		AvgRunS:     s.avgRunS,
		DeadLetters: len(s.dead),
	}
	for _, j := range s.jobs {
		if j.view.State == JobRetrying {
			st.Retrying++
		}
	}
	if s.store != nil {
		ws := s.store.Stats()
		st.WAL = &ws
	}
	return st
}

// DeadLetters returns the jobs that reached terminal failure: attempt
// budget exhausted, failed non-retryably, or shed by admission
// control. Newest last; bounded.
func (s *Scheduler) DeadLetters() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, len(s.dead))
	copy(out, s.dead)
	return out
}

// deadLettersKept bounds the dead-letter list; older entries age out
// first (they remain queryable via the WAL until compaction).
const deadLettersKept = 256

// deadLetterLocked files a terminal failure. Caller holds s.mu.
func (s *Scheduler) deadLetterLocked(v JobView) {
	s.dead = append(s.dead, v)
	if len(s.dead) > deadLettersKept {
		s.dead = s.dead[len(s.dead)-deadLettersKept:]
	}
}

// RetryAfter estimates how long a rejected client should wait before
// the queue has likely freed a slot: one average job run across the
// pool, floored at a second.
func (s *Scheduler) RetryAfter() time.Duration {
	s.mu.Lock()
	avg := s.avgRunS
	s.mu.Unlock()
	if avg <= 0 {
		return time.Second
	}
	d := time.Duration(avg / float64(s.cfg.Workers) * float64(time.Second))
	if d < time.Second {
		return time.Second
	}
	if d > 30*time.Second {
		return 30 * time.Second
	}
	return d
}

// Shutdown stops intake, cancels queued jobs and waits for in-flight
// jobs to drain. The context bounds the wait; on expiry the remaining
// jobs are force-canceled and ctx.Err is returned.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for s.queue.Len() > 0 {
			j := heap.Pop(&s.queue).(*job)
			j.pos = -1
			s.finalizeLocked(j, JobCanceled, FailCanceled, nil, ErrShuttingDown)
		}
		// Jobs waiting out a retry backoff hold no queue slot; cancel
		// them too so every non-terminal job resolves before exit.
		for _, j := range s.jobs {
			if j.view.State == JobRetrying {
				if j.retryTimer != nil {
					j.retryTimer.Stop()
					j.retryTimer = nil
				}
				s.finalizeLocked(j, JobCanceled, FailCanceled, nil, ErrShuttingDown)
			}
		}
		s.reg.Set(telemetry.MSimQueueDepth, 0)
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-drained
		return ctx.Err()
	}
}

// worker pops jobs until shutdown empties the queue.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j, ctx, cancel, sp, ok := s.nextJob()
		if !ok {
			return
		}
		s.execute(ctx, cancel, j, sp)
	}
}

// nextJob blocks until a job is available (or shutdown drains the
// queue — then ok is false). It holds the lock for the whole dequeue:
// pop, mark running, WAL start record, metrics and the job span, so a
// Snapshot can never observe a popped-but-not-running job.
func (s *Scheduler) nextJob() (j *job, ctx context.Context, cancel context.CancelFunc, sp *telemetry.Span, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.queue.Len() == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.queue.Len() == 0 && s.closed {
		return nil, nil, nil, nil, false
	}
	j = heap.Pop(&s.queue).(*job)
	j.pos = -1
	now := time.Now()
	j.view.State = JobRunning
	j.view.StartedAt = &now
	j.view.QueueWaitS = now.Sub(j.view.SubmittedAt).Seconds()
	if s.store != nil {
		// A lost start record only means replay re-queues instead of
		// observing the attempt — safe, so log failures don't stall
		// the worker.
		if err := s.store.LogStart(j.view.ID, j.view.Attempt); err != nil {
			s.reg.Inc(telemetry.MSimWalAppendErrorsTotal)
		}
	}
	ctx, cancel = context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	j.cancel = cancel
	s.busy++
	s.reg.Set(telemetry.MSimQueueDepth, float64(s.queue.Len()))
	s.reg.Set(telemetry.MSimWorkersBusy, float64(s.busy))
	// The job's life splits at dequeue: everything before now is
	// queue wait, everything after is service. The wait feeds its
	// histogram here and is reconstructed as a span under the job's
	// span tree, so trace export (prof.BuildTrace) renders both
	// phases of a job on one Perfetto track.
	s.reg.Observe(telemetry.MSimJobQueueWaitSeconds, j.view.QueueWaitS)
	sp = s.reg.StartSpan("sim_job")
	sp.Attr("id", j.view.ID).Attr("kind", j.view.Kind)
	s.reg.RecordSpan(telemetry.SpanRecord{
		Name: "sim_queue_wait", ParentID: sp.ID(), Start: j.view.SubmittedAt,
		DurationSeconds: now.Sub(j.view.SubmittedAt).Seconds(),
		Attrs:           telemetry.Attrs{{Key: "id", Value: j.view.ID}},
	})
	return j, ctx, cancel, sp, true
}

// execute runs one job with timeout/cancel semantics: the runner goes
// to a child goroutine and the worker reclaims its slot if the
// deadline fires first (the abandoned run's result is discarded).
func (s *Scheduler) execute(ctx context.Context, cancel context.CancelFunc, j *job, sp *telemetry.Span) {
	defer cancel()
	type outcome struct {
		result json.RawMessage
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		var res json.RawMessage
		var err error
		// Label the runner goroutine so CPU profiles attribute samples
		// to the job (flamegraphs filterable by stage/job/spec hash —
		// the job ID is the scenario's content hash).
		prof.Do(ctx, func() {
			res, err = s.run(ctx, j.spec)
		}, "stage", "sim_job", "job_id", j.view.ID, "spec_hash", j.view.ID, "kind", j.view.Kind)
		ch <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-ch:
	case <-ctx.Done():
		out = outcome{nil, ctx.Err()}
	}
	sp.End()

	s.mu.Lock()
	state := JobDone
	var class FailureClass
	switch {
	case out.err == nil:
	case errors.Is(out.err, context.Canceled):
		state, class = JobCanceled, FailCanceled
	default:
		state, class = JobFailed, Classify(out.err)
	}
	s.finalizeLocked(j, state, class, out.result, out.err)
	s.busy--
	s.reg.Set(telemetry.MSimWorkersBusy, float64(s.busy))
	s.mu.Unlock()
}

// noteRunLocked closes out one attempt's run-time bookkeeping: the
// duration histogram, the Retry-After EWMA and the slowest-jobs table.
// Caller holds s.mu.
func (s *Scheduler) noteRunLocked(j *job, now time.Time) {
	if j.view.StartedAt == nil {
		return
	}
	j.view.RunS = now.Sub(*j.view.StartedAt).Seconds()
	s.reg.Observe(telemetry.MSimJobDurationSeconds, j.view.RunS)
	const alpha = 0.2
	if s.avgRunS == 0 {
		s.avgRunS = j.view.RunS
	} else {
		s.avgRunS += alpha * (j.view.RunS - s.avgRunS)
	}
	s.noteSlowLocked(j.view)
}

// finalizeLocked resolves a finished attempt. A retryable failure with
// budget left schedules the next attempt (state JobRetrying — not
// terminal, waiters keep waiting); everything else lands terminally:
// cache, dead-letter list or failure history, a WAL record, and the
// job's waiters wake. Caller holds s.mu.
func (s *Scheduler) finalizeLocked(j *job, state JobState, class FailureClass, result json.RawMessage, err error) {
	if j.view.State.Terminal() {
		return
	}
	now := time.Now()
	if state == JobFailed && class.Retryable() && j.view.Attempt < s.retry.MaxAttempts && !s.closed {
		s.scheduleRetryLocked(j, class, err, now)
		return
	}
	j.view.State = state
	j.view.FinishedAt = &now
	s.noteRunLocked(j, now)
	switch state {
	case JobDone:
		j.result = result
		j.view.Class, j.view.NextRetryAt = "", nil
		s.reg.Inc(telemetry.MSimJobsCompletedTotal)
		if s.cache.add(j.view.ID, cacheEntry{view: j.view, result: result}) {
			s.reg.Inc(telemetry.MSimCacheEvictionsTotal)
		}
		s.walLogLocked(func() error { return s.store.LogDone(j.view.ID, j.view, result) })
	case JobCanceled:
		if err != nil {
			j.view.Error = err.Error()
		}
		j.view.NextRetryAt = nil
		s.reg.Inc(telemetry.MSimJobsCanceledTotal)
		s.recent.put(j.view)
		s.walLogLocked(func() error { return s.store.LogCancel(j.view.ID, j.view) })
	case JobFailed:
		if err != nil {
			j.view.Error = err.Error()
		}
		if class != "" {
			j.view.Class = string(class)
		}
		j.view.NextRetryAt = nil
		s.reg.Inc(telemetry.MSimJobsFailedTotal)
		if errors.Is(err, context.DeadlineExceeded) {
			s.reg.Inc(telemetry.MSimJobsTimedOutTotal)
		}
		s.recent.put(j.view)
		s.deadLetterLocked(j.view)
		s.reg.Inc(telemetry.MSimJobsDeadletteredTotal)
		s.walLogLocked(func() error { return s.store.LogFailed(j.view.ID, j.view) })
	}
	delete(s.jobs, j.view.ID)
	close(j.done)
	s.maybeCompactLocked()
}

// walLogLocked appends a terminal record, counting (but not failing
// on) append errors: the in-memory state is already authoritative for
// this process; durability degrades, the scheduler does not.
func (s *Scheduler) walLogLocked(fn func() error) {
	if s.store == nil {
		return
	}
	if err := fn(); err != nil {
		s.reg.Inc(telemetry.MSimWalAppendErrorsTotal)
	}
}

// scheduleRetryLocked parks a retryably-failed job for its backoff:
// Base·2^(attempt−1) clamped and jittered. The job keeps its slot in
// s.jobs (still dedupes submissions) but not in the queue. Caller
// holds s.mu.
func (s *Scheduler) scheduleRetryLocked(j *job, class FailureClass, err error, now time.Time) {
	s.noteRunLocked(j, now)
	failedAttempt := j.view.Attempt
	d := s.retry.Backoff(failedAttempt, s.rng)
	at := now.Add(d)
	j.view.State = JobRetrying
	j.view.Attempt++
	j.view.Class = string(class)
	if err != nil {
		j.view.Error = err.Error()
	}
	j.view.StartedAt = nil
	j.view.FinishedAt = nil
	j.view.RunS = 0
	j.view.NextRetryAt = &at
	s.reg.Inc(telemetry.MSimJobsRetriedTotal)
	s.reg.Observe(telemetry.MSimRetryBackoffSeconds, d.Seconds())
	if class == FailTimeout {
		s.reg.Inc(telemetry.MSimJobsTimedOutTotal)
	}
	s.walLogLocked(func() error { return s.store.LogRetry(j.view.ID, j.view.Attempt) })
	id := j.view.ID
	j.retryTimer = time.AfterFunc(d, func() { s.requeue(id) })
}

// requeue moves a job whose backoff expired back into the queue.
func (s *Scheduler) requeue(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.view.State != JobRetrying {
		return
	}
	j.retryTimer = nil
	if s.closed {
		s.finalizeLocked(j, JobCanceled, FailCanceled, nil, ErrShuttingDown)
		return
	}
	j.view.State = JobQueued
	j.view.NextRetryAt = nil
	// Queue wait for the new attempt starts now; the backoff was not
	// time spent waiting for a worker.
	j.view.SubmittedAt = time.Now()
	heap.Push(&s.queue, j)
	s.reg.Set(telemetry.MSimQueueDepth, float64(s.queue.Len()))
	s.cond.Signal()
}

// shedLocked evicts a queued job to admit higher-priority work: a
// terminal failure with class "shed". Caller holds s.mu.
func (s *Scheduler) shedLocked(j *job) {
	s.queue.remove(j)
	s.reg.Inc(telemetry.MSimJobsShedTotal)
	s.finalizeLocked(j, JobFailed, FailShed, nil, errShed)
	s.reg.Set(telemetry.MSimQueueDepth, float64(s.queue.Len()))
}

// maybeCompactLocked rewrites the WAL as a snapshot of live state once
// it passes the high-water size. The next trigger doubles from the
// post-compaction size (floored at the configured threshold) so a log
// whose live state is genuinely large doesn't compact on every
// terminal transition. Caller holds s.mu.
func (s *Scheduler) maybeCompactLocked() {
	if s.store == nil {
		return
	}
	if s.store.Stats().TotalBytes < s.compactAt {
		return
	}
	var snap Snapshot
	for _, e := range s.cache.entries() {
		snap.Done = append(snap.Done, DoneJob{View: e.view, Result: e.result})
	}
	snap.Dead = append(snap.Dead, s.dead...)
	for _, j := range s.jobs {
		snap.Live = append(snap.Live, PendingJob{
			ID:       j.view.ID,
			Spec:     j.spec,
			Priority: j.view.Priority,
			Attempt:  j.view.Attempt,
		})
	}
	if err := s.store.Compact(snap); err != nil {
		s.reg.Inc(telemetry.MSimWalAppendErrorsTotal)
		return
	}
	post := 2 * s.store.Stats().TotalBytes
	s.compactAt = s.cfg.CompactBytes
	if post > s.compactAt {
		s.compactAt = post
	}
}

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

// Batch identifies a group of jobs submitted together (a sweep).
type Batch struct {
	ID     string   `json:"id"`
	JobIDs []string `json:"job_ids"`
}

// SubmitBatch atomically submits a group of specs: either every spec
// is accepted (queued, deduplicated against live jobs, or served from
// cache) or none is and ErrQueueFull is returned. The returned views
// parallel the input order.
func (s *Scheduler) SubmitBatch(specs []scenario.Spec, priority int) (Batch, []JobView, error) {
	if len(specs) == 0 {
		return Batch{}, nil, fmt.Errorf("sim: empty batch")
	}
	type item struct {
		sp scenario.Spec
		id string
	}
	items := make([]item, len(specs))
	for i, spec := range specs {
		sp := spec.Normalize()
		if err := sp.Validate(); err != nil {
			return Batch{}, nil, fmt.Errorf("sim: batch spec %d: %w", i, err)
		}
		id, err := sp.Hash()
		if err != nil {
			return Batch{}, nil, err
		}
		items[i] = item{sp, id}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Batch{}, nil, ErrShuttingDown
	}
	// Capacity check first so acceptance is all-or-nothing: count the
	// specs that will need a fresh queue slot.
	need := 0
	seen := make(map[string]bool, len(items))
	for _, it := range items {
		if seen[it.id] {
			continue
		}
		seen[it.id] = true
		if _, ok := s.cache.get(it.id); ok {
			continue
		}
		if _, ok := s.jobs[it.id]; ok {
			continue
		}
		need++
	}
	if free := s.cfg.QueueDepth - s.queue.Len(); need > free {
		s.reg.Add(telemetry.MSimJobsRejectedTotal, int64(need))
		return Batch{}, nil, fmt.Errorf("%w: batch needs %d slots, %d free", ErrQueueFull, need, free)
	}
	views := make([]JobView, len(items))
	ids := make([]string, len(items))
	for i, it := range items {
		v, err := s.submitLocked(it.sp, it.id, priority)
		if err != nil {
			// Unreachable after the capacity check, barring duplicate
			// hashes racing — surface loudly rather than half-submit.
			return Batch{}, nil, err
		}
		views[i] = v
		ids[i] = it.id
	}
	b := Batch{ID: batchID(ids), JobIDs: ids}
	s.batches.put(b)
	return b, views, nil
}

// BatchOf returns a previously submitted batch.
func (s *Scheduler) BatchOf(id string) (Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches.get(id)
}

// batchID derives a stable identifier from the member job hashes, so
// resubmitting the same sweep addresses the same batch.
func batchID(ids []string) string {
	h := sha256.New()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// ---------------------------------------------------------------------------
// Priority queue
// ---------------------------------------------------------------------------

// jobHeap orders by priority (higher first), then submission order.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	if h[i].view.Priority != h[k].view.Priority {
		return h[i].view.Priority > h[k].view.Priority
	}
	return h[i].seq < h[k].seq
}
func (h jobHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].pos = i
	h[k].pos = k
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.pos = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// remove deletes a specific job from the heap (queued-job cancel).
func (h *jobHeap) remove(j *job) {
	if j.pos >= 0 && j.pos < len(*h) && (*h)[j.pos] == j {
		heap.Remove(h, j.pos)
		j.pos = -1
	}
}

// lowest returns the job shedding would evict: minimum priority, and
// among ties the most recently submitted (it has waited least). Linear
// scan — the queue is bounded by QueueDepth.
func (h jobHeap) lowest() *job {
	var worst *job
	for _, j := range h {
		if worst == nil || j.view.Priority < worst.view.Priority ||
			(j.view.Priority == worst.view.Priority && j.seq > worst.seq) {
			worst = j
		}
	}
	return worst
}
