package mac

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pab/internal/frame"
	"pab/internal/telemetry"
)

// Clock supplies the session's notion of time. In simulation the fault
// engine implements it (Sleep advances simulated time, so backing off
// actually waits out a noise episode); live deployments wire a wall
// clock.
type Clock interface {
	// Now returns the current time in seconds from an arbitrary epoch.
	Now() float64
	// Sleep blocks for the given number of seconds.
	Sleep(seconds float64)
}

// RateControl is the optional link-adaptation surface of a Transport: a
// ladder of operating points trading speed for robustness. Downshift
// moves toward the robust end (slower downlink PWM, smaller uplink
// payload budget); Upshift moves back. Both report false at the ladder
// ends. core.Link and the fault package's simulated link implement it.
type RateControl interface {
	Downshift() bool
	Upshift() bool
}

// SessionConfig tunes failure handling and link adaptation.
type SessionConfig struct {
	// MaxAttempts bounds exchanges per logical poll (default 3).
	MaxAttempts int
	// BackoffBaseS is the first inter-attempt backoff in seconds
	// (default 0.25); successive failures double it up to BackoffCapS
	// (default 8). Jitter multiplies each wait by [0.75, 1.25).
	BackoffBaseS float64
	BackoffCapS  float64
	// Seed drives the backoff jitter (deterministic runs).
	Seed int64
	// DownshiftAfter is the consecutive CRC-failure streak that triggers
	// a rate downshift (default 2). CRC failures specifically: the link
	// is alive but marginal, so a more robust operating point helps;
	// no-sync failures back off instead.
	DownshiftAfter int
	// UpshiftAfter is the consecutive clean-exchange streak that
	// triggers an upshift (default 6).
	UpshiftAfter int
	// QuarantineAfter is the consecutive failed-poll count after which a
	// node is quarantined (default 2).
	QuarantineAfter int
	// QuarantineS is how long a quarantined node is skipped before one
	// probe is allowed (default 20 s).
	QuarantineS float64
	// EvictAfter is the number of failed re-probes after which a node is
	// evicted permanently (default 5).
	EvictAfter int
}

// DefaultSessionConfig returns the defaults above.
func DefaultSessionConfig(seed int64) SessionConfig {
	return SessionConfig{
		MaxAttempts:     3,
		BackoffBaseS:    0.25,
		BackoffCapS:     8,
		Seed:            seed,
		DownshiftAfter:  2,
		UpshiftAfter:    6,
		QuarantineAfter: 2,
		QuarantineS:     20,
		EvictAfter:      5,
	}
}

// NodeHealth is the session's per-node account.
type NodeHealth struct {
	Addr byte
	// ConsecutiveFailures counts failed polls since the last success.
	ConsecutiveFailures int
	// Quarantined marks a node currently being skipped.
	Quarantined bool
	// QuarantineUntil is the clock time the next probe is allowed.
	QuarantineUntil float64
	// FailedProbes counts quarantine probes that failed.
	FailedProbes int
	// Evicted marks a node removed from service permanently.
	Evicted bool
	// crcStreak / cleanStreak drive rate adaptation.
	crcStreak   int
	cleanStreak int
	// failingSince is the clock time of the first failure of the current
	// failure episode (NaN when healthy) for recovery-latency tracking.
	failingSince float64
	// parkedRungs counts rate-ladder rungs temporarily dropped to probe
	// a quarantined node robustly, restored on the next success.
	parkedRungs int
}

// SessionStats extends the MAC counters with resilience accounting.
type SessionStats struct {
	Stats
	// BackoffSeconds is total time spent backing off.
	BackoffSeconds float64
	// Downshifts / Upshifts count rate-adaptation moves.
	Downshifts, Upshifts int
	// Quarantines counts quarantine entries; Evictions permanent
	// removals; SkippedPolls polls refused due to quarantine/eviction.
	Quarantines, Evictions, SkippedPolls int
	// Recoveries counts failure episodes that ended in a success, and
	// RecoveryLatencyS their total duration (first failure → next
	// success on the session clock).
	Recoveries       int
	RecoveryLatencyS float64
}

// MeanRecoveryS returns the mean failure-episode duration (0 when no
// episode has recovered yet).
func (s SessionStats) MeanRecoveryS() float64 {
	if s.Recoveries == 0 {
		return 0
	}
	return s.RecoveryLatencyS / float64(s.Recoveries)
}

// Session is the resilient link layer on top of the raw ARQ Poller:
// where the Poller retries blindly and instantly, the Session classifies
// each failure (no-sync vs CRC-fail vs timeout), applies bounded
// exponential backoff with seeded jitter so it stops hammering a channel
// that is momentarily jammed (impulsive noise, fades), downshifts the
// link's operating point — downlink PWM rate and uplink payload budget —
// on repeated CRC failures and upshifts after clean streaks, and tracks
// per-node health with quarantine and eviction so one browned-out node
// cannot stall a network sweep. This is the graceful-degradation layer
// the paper's §8 deployment challenges (mobility, surface motion,
// battery-free power loss) call for.
type Session struct {
	cfg        SessionConfig
	clk        Clock
	rng        *rand.Rand
	transports map[byte]Transport
	rates      map[byte]RateControl // transports that support adaptation
	health     map[byte]*NodeHealth
	order      []byte
	stats      SessionStats
}

// NewSession builds a session over per-node transports. Transports that
// also implement RateControl get link adaptation; the rest are polled at
// their fixed rate.
func NewSession(transports map[byte]Transport, cfg SessionConfig, clk Clock) (*Session, error) {
	if len(transports) == 0 {
		return nil, fmt.Errorf("mac: no transports")
	}
	if clk == nil {
		return nil, fmt.Errorf("mac: nil clock")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBaseS <= 0 {
		cfg.BackoffBaseS = 0.25
	}
	if cfg.BackoffCapS < cfg.BackoffBaseS {
		cfg.BackoffCapS = 8
	}
	if cfg.DownshiftAfter <= 0 {
		cfg.DownshiftAfter = 2
	}
	if cfg.UpshiftAfter <= 0 {
		cfg.UpshiftAfter = 6
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 2
	}
	if cfg.QuarantineS <= 0 {
		cfg.QuarantineS = 20
	}
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = 5
	}
	s := &Session{
		cfg:        cfg,
		clk:        clk,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		transports: make(map[byte]Transport, len(transports)),
		rates:      make(map[byte]RateControl),
		health:     make(map[byte]*NodeHealth, len(transports)),
	}
	for addr := range transports {
		s.order = append(s.order, addr)
	}
	sort.Slice(s.order, func(a, b int) bool { return s.order[a] < s.order[b] })
	// Validate in address order so the reported nil transport is the
	// same one on every run.
	for _, addr := range s.order {
		tr := transports[addr]
		if tr == nil {
			return nil, fmt.Errorf("mac: nil transport for %#02x", addr)
		}
		s.transports[addr] = tr
		if rc, ok := tr.(RateControl); ok {
			s.rates[addr] = rc
		}
		s.health[addr] = &NodeHealth{Addr: addr, failingSince: math.NaN()}
	}
	return s, nil
}

// Stats returns the accumulated session counters.
func (s *Session) Stats() SessionStats { return s.stats }

// Poll performs one logical query with classification, backoff and rate
// adaptation. Quarantined nodes are refused until their probe window
// opens; evicted nodes are refused permanently. Failures return a
// *ExchangeError.
func (s *Session) Poll(q frame.Query) (*frame.DataFrame, error) {
	h := s.health[q.Dest]
	tr := s.transports[q.Dest]
	if h == nil || tr == nil {
		return nil, &ExchangeError{Dest: q.Dest, Class: ClassTimeout,
			Err: fmt.Errorf("mac: no transport for %#02x", q.Dest)}
	}
	if h.Evicted {
		s.stats.SkippedPolls++
		return nil, &ExchangeError{Dest: q.Dest, Class: ClassEvicted}
	}
	if h.Quarantined && s.clk.Now() < h.QuarantineUntil {
		s.stats.SkippedPolls++
		telemetry.Inc(telemetry.MMacSessionSkippedPollsTotal)
		return nil, &ExchangeError{Dest: q.Dest, Class: ClassQuarantined}
	}
	probing := h.Quarantined
	if probing {
		// Probe at the most robust rung: a single cautious attempt has
		// the best odds there, and the pre-quarantine operating point is
		// restored if the node answers. Parking moves are not counted as
		// adaptation downshifts.
		if rc := s.rates[q.Dest]; rc != nil {
			for rc.Downshift() {
				h.parkedRungs++
			}
		}
	}

	s.stats.Polls++
	telemetry.Inc(telemetry.MMacSessionPollsTotal)
	var lastErr error
	lastClass := ClassUnknown
	attempts := s.cfg.MaxAttempts
	if probing {
		attempts = 1 // one cautious probe per quarantine window
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			s.stats.Retries++
			telemetry.Inc(telemetry.MMacRetriesTotal)
			s.backoff(attempt)
		}
		s.stats.Queries++
		telemetry.Inc(telemetry.MMacQueriesTotal)
		ex, err := tr.Exchange(q)
		s.stats.Airtime += ex.AirtimeSeconds
		telemetry.Observe(telemetry.MMacAirtimeSeconds, ex.AirtimeSeconds)
		if ex.Reply != nil && err == nil {
			s.stats.Replies++
			s.stats.PayloadBytes += len(ex.Reply.Payload)
			telemetry.Inc(telemetry.MMacRepliesTotal)
			s.noteSuccess(h)
			return ex.Reply, nil
		}
		s.stats.Failures++
		telemetry.Inc(telemetry.MMacFailuresTotal)
		lastClass = Classify(ex, err)
		s.countClass(lastClass)
		lastErr = err
		s.noteAttemptFailure(h, lastClass)
	}
	s.notePollFailure(h, probing)
	return nil, &ExchangeError{Dest: q.Dest, Attempts: attempts, Class: lastClass, Err: lastErr}
}

// Sweep performs one pass over all in-service nodes, skipping
// quarantined ones whose probe window has not opened. Results are keyed
// by address; failed nodes map to nil; skipped and evicted nodes are
// absent.
func (s *Session) Sweep(build func(addr byte) frame.Query) map[byte]*frame.DataFrame {
	sp := telemetry.StartSpan("mac_session_sweep")
	defer sp.End()
	telemetry.Inc(telemetry.MMacSessionSweepsTotal)
	out := make(map[byte]*frame.DataFrame, len(s.order))
	for _, addr := range s.order {
		h := s.health[addr]
		if h.Evicted || (h.Quarantined && s.clk.Now() < h.QuarantineUntil) {
			s.stats.SkippedPolls++
			continue
		}
		reply, err := s.Poll(build(addr))
		if err != nil {
			out[addr] = nil
			continue
		}
		out[addr] = reply
	}
	return out
}

// backoff sleeps the bounded exponential backoff for the given retry
// attempt (1-based) with seeded jitter in [0.75, 1.25).
func (s *Session) backoff(attempt int) {
	wait := s.cfg.BackoffBaseS * math.Pow(2, float64(attempt-1))
	if wait > s.cfg.BackoffCapS {
		wait = s.cfg.BackoffCapS
	}
	wait *= 0.75 + 0.5*s.rng.Float64()
	s.stats.BackoffSeconds += wait
	telemetry.Observe(telemetry.MMacSessionBackoffSeconds, wait)
	s.clk.Sleep(wait)
}

// noteSuccess updates health and adaptation state after a clean reply.
func (s *Session) noteSuccess(h *NodeHealth) {
	if !math.IsNaN(h.failingSince) {
		lat := s.clk.Now() - h.failingSince
		if lat >= 0 {
			s.stats.Recoveries++
			s.stats.RecoveryLatencyS += lat
			telemetry.Observe(telemetry.MMacSessionRecoverySeconds, lat)
		}
		h.failingSince = math.NaN()
	}
	h.ConsecutiveFailures = 0
	h.FailedProbes = 0
	if h.Quarantined {
		h.Quarantined = false
		telemetry.Inc(telemetry.MMacSessionRehabilitationsTotal)
	}
	if h.parkedRungs > 0 {
		if rc := s.rates[h.Addr]; rc != nil {
			for i := 0; i < h.parkedRungs; i++ {
				rc.Upshift()
			}
		}
		h.parkedRungs = 0
	}
	h.crcStreak = 0
	h.cleanStreak++
	if rc := s.rates[h.Addr]; rc != nil && h.cleanStreak >= s.cfg.UpshiftAfter {
		if rc.Upshift() {
			s.stats.Upshifts++
			telemetry.Inc(telemetry.MMacSessionUpshiftsTotal)
		}
		h.cleanStreak = 0
	}
}

// noteAttemptFailure updates adaptation state after one failed exchange.
func (s *Session) noteAttemptFailure(h *NodeHealth, class FailureClass) {
	if math.IsNaN(h.failingSince) {
		h.failingSince = s.clk.Now()
	}
	h.cleanStreak = 0
	if class != ClassCRC {
		return
	}
	h.crcStreak++
	if rc := s.rates[h.Addr]; rc != nil && h.crcStreak >= s.cfg.DownshiftAfter {
		if rc.Downshift() {
			s.stats.Downshifts++
			telemetry.Inc(telemetry.MMacSessionDownshiftsTotal)
		}
		h.crcStreak = 0
	}
}

// notePollFailure updates health after a logical poll exhausted its
// attempts, advancing quarantine and eviction.
func (s *Session) notePollFailure(h *NodeHealth, probing bool) {
	h.ConsecutiveFailures++
	if probing {
		h.FailedProbes++
		if h.FailedProbes >= s.cfg.EvictAfter {
			h.Evicted = true
			h.Quarantined = false
			s.stats.Evictions++
			telemetry.Inc(telemetry.MMacSessionEvictionsTotal)
			return
		}
		h.QuarantineUntil = s.clk.Now() + s.cfg.QuarantineS
		return
	}
	if h.ConsecutiveFailures >= s.cfg.QuarantineAfter {
		h.Quarantined = true
		h.QuarantineUntil = s.clk.Now() + s.cfg.QuarantineS
		s.stats.Quarantines++
		telemetry.Inc(telemetry.MMacSessionQuarantinesTotal)
	}
}

// countClass records a per-class failure in the stats and telemetry.
func (s *Session) countClass(c FailureClass) {
	switch c {
	case ClassNoSync:
		s.stats.NoSync++
		telemetry.Inc(telemetry.MMacFailuresNoSyncTotal)
	case ClassCRC:
		s.stats.CRCFails++
		telemetry.Inc(telemetry.MMacFailuresCrcTotal)
	case ClassTimeout:
		s.stats.Timeouts++
		telemetry.Inc(telemetry.MMacFailuresTimeoutTotal)
	}
}
