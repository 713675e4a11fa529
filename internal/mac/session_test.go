package mac

import (
	"errors"
	"fmt"
	"testing"

	"pab/internal/frame"
)

// fakeClock is a manually advanced session clock.
type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64      { return c.t }
func (c *fakeClock) Sleep(s float64)   { c.t += s }
func (c *fakeClock) advance(s float64) { c.t += s }

// outcome scripts one exchange of a scripted transport.
type outcome int

const (
	outOK outcome = iota
	outCRC
	outNoSync
	outErr
)

// scriptedTransport replays a fixed outcome sequence (the last entry
// repeats when exhausted) and records its rate-control level.
type scriptedTransport struct {
	script     []outcome
	i          int
	level      int // current rung, 0 = most robust
	maxLevel   int
	downs, ups int
}

func (tr *scriptedTransport) next() outcome {
	if tr.i < len(tr.script) {
		o := tr.script[tr.i]
		tr.i++
		return o
	}
	if len(tr.script) == 0 {
		return outOK
	}
	return tr.script[len(tr.script)-1]
}

func (tr *scriptedTransport) Exchange(q frame.Query) (Exchange, error) {
	ex := Exchange{AirtimeSeconds: 0.1}
	switch tr.next() {
	case outOK:
		ex.Reply = &frame.DataFrame{Source: q.Dest, Payload: []byte{1, 2, 3, 4}}
		ex.SNRLinear = 10
	case outCRC:
		ex.SNRLinear = 2 // detected but corrupted
	case outNoSync:
		// nothing heard at all
	case outErr:
		return ex, fmt.Errorf("transport fault")
	}
	return ex, nil
}

func (tr *scriptedTransport) Downshift() bool {
	if tr.level == 0 {
		return false
	}
	tr.level--
	tr.downs++
	return true
}

func (tr *scriptedTransport) Upshift() bool {
	if tr.level >= tr.maxLevel {
		return false
	}
	tr.level++
	tr.ups++
	return true
}

func (tr *scriptedTransport) Level() int { return tr.level }

func newTestSession(t *testing.T, tr Transport, cfg SessionConfig) (*Session, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	s, err := NewSession(map[byte]Transport{1: tr}, cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	return s, clk
}

func q1() frame.Query {
	return frame.Query{Dest: 1, Command: frame.CmdReadSensor, Param: byte(frame.SensorTemperature)}
}

func TestSessionPollSuccess(t *testing.T) {
	tr := &scriptedTransport{script: []outcome{outOK}}
	s, _ := newTestSession(t, tr, DefaultSessionConfig(1))
	reply, err := s.Poll(q1())
	if err != nil {
		t.Fatal(err)
	}
	if reply == nil || len(reply.Payload) != 4 {
		t.Fatalf("bad reply: %+v", reply)
	}
	st := s.Stats()
	if st.Polls != 1 || st.Replies != 1 || st.Failures != 0 || st.Retries != 0 {
		t.Errorf("stats: %+v", st.Stats)
	}
}

func TestSessionClassification(t *testing.T) {
	cases := []struct {
		script   []outcome
		sentinel error
		class    FailureClass
	}{
		{[]outcome{outNoSync}, ErrNoSync, ClassNoSync},
		{[]outcome{outCRC}, ErrCRC, ClassCRC},
		{[]outcome{outErr}, ErrTimeout, ClassTimeout},
	}
	for _, c := range cases {
		tr := &scriptedTransport{script: c.script}
		cfg := DefaultSessionConfig(1)
		cfg.MaxAttempts = 1
		s, _ := newTestSession(t, tr, cfg)
		_, err := s.Poll(q1())
		if !errors.Is(err, c.sentinel) {
			t.Errorf("script %v: errors.Is(%v, %v) = false", c.script, err, c.sentinel)
		}
		var ee *ExchangeError
		if !errors.As(err, &ee) {
			t.Fatalf("script %v: not an *ExchangeError: %v", c.script, err)
		}
		if ee.Class != c.class || ee.Dest != 1 || ee.Attempts != 1 {
			t.Errorf("script %v: %+v", c.script, ee)
		}
	}
}

func TestSessionBackoffAccounting(t *testing.T) {
	tr := &scriptedTransport{script: []outcome{outNoSync}}
	cfg := DefaultSessionConfig(1)
	cfg.MaxAttempts = 3
	cfg.BackoffBaseS = 1
	cfg.BackoffCapS = 8
	s, clk := newTestSession(t, tr, cfg)
	_, err := s.Poll(q1())
	if !errors.Is(err, ErrNoSync) {
		t.Fatalf("want no-sync, got %v", err)
	}
	st := s.Stats()
	if st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
	// Waits are base·2^(n−1) with jitter in [0.75, 1.25): 1 s + 2 s
	// nominal → [2.25, 3.75) total.
	if st.BackoffSeconds < 2.25 || st.BackoffSeconds >= 3.75 {
		t.Errorf("backoff %g s outside jitter bounds [2.25, 3.75)", st.BackoffSeconds)
	}
	if clk.t != st.BackoffSeconds {
		t.Errorf("clock advanced %g s, backoff says %g s", clk.t, st.BackoffSeconds)
	}
}

func TestSessionBackoffCap(t *testing.T) {
	tr := &scriptedTransport{script: []outcome{outNoSync}}
	cfg := DefaultSessionConfig(1)
	cfg.MaxAttempts = 8
	cfg.BackoffBaseS = 1
	cfg.BackoffCapS = 2
	cfg.QuarantineAfter = 100 // keep the poll path pure
	s, _ := newTestSession(t, tr, cfg)
	s.Poll(q1())
	// 7 waits, each capped at 2 s nominal → < 7·2·1.25.
	if st := s.Stats(); st.BackoffSeconds >= 17.5 {
		t.Errorf("backoff %g s ignores the cap", st.BackoffSeconds)
	}
}

func TestSessionDownshiftOnCRCStreak(t *testing.T) {
	tr := &scriptedTransport{script: []outcome{outCRC}, level: 2, maxLevel: 2}
	cfg := DefaultSessionConfig(1)
	cfg.MaxAttempts = 4
	cfg.DownshiftAfter = 2
	s, _ := newTestSession(t, tr, cfg)
	s.Poll(q1())
	// 4 CRC failures with DownshiftAfter=2 → two downshifts.
	if tr.downs != 2 || tr.level != 0 {
		t.Errorf("downs = %d, level = %d; want 2 downshifts to level 0", tr.downs, tr.level)
	}
	if st := s.Stats(); st.Downshifts != 2 {
		t.Errorf("stats.Downshifts = %d, want 2", st.Downshifts)
	}
}

func TestSessionNoDownshiftOnNoSync(t *testing.T) {
	tr := &scriptedTransport{script: []outcome{outNoSync}, level: 2, maxLevel: 2}
	cfg := DefaultSessionConfig(1)
	cfg.MaxAttempts = 6
	cfg.DownshiftAfter = 2
	cfg.QuarantineAfter = 100
	s, _ := newTestSession(t, tr, cfg)
	s.Poll(q1())
	if tr.downs != 0 {
		t.Errorf("no-sync failures triggered %d downshifts; only CRC should", tr.downs)
	}
}

func TestSessionUpshiftAfterCleanStreak(t *testing.T) {
	tr := &scriptedTransport{script: []outcome{outOK}, level: 0, maxLevel: 2}
	cfg := DefaultSessionConfig(1)
	cfg.UpshiftAfter = 3
	s, _ := newTestSession(t, tr, cfg)
	for i := 0; i < 7; i++ {
		if _, err := s.Poll(q1()); err != nil {
			t.Fatal(err)
		}
	}
	// Clean streaks of 3 → upshifts after polls 3 and 6.
	if tr.ups != 2 || tr.level != 2 {
		t.Errorf("ups = %d, level = %d; want 2 upshifts to level 2", tr.ups, tr.level)
	}
	if st := s.Stats(); st.Upshifts != 2 {
		t.Errorf("stats.Upshifts = %d, want 2", st.Upshifts)
	}
}

func TestSessionQuarantineProbeEvict(t *testing.T) {
	tr := &scriptedTransport{script: []outcome{outNoSync}, level: 2, maxLevel: 2}
	cfg := DefaultSessionConfig(1)
	cfg.MaxAttempts = 1
	cfg.QuarantineAfter = 2
	cfg.QuarantineS = 10
	cfg.EvictAfter = 2
	s, clk := newTestSession(t, tr, cfg)

	// Two failed polls → quarantine.
	s.Poll(q1())
	s.Poll(q1())
	h := *s.health[1]
	if !h.Quarantined {
		t.Fatalf("not quarantined after %d failures: %+v", h.ConsecutiveFailures, h)
	}
	if st := s.Stats(); st.Quarantines != 1 {
		t.Errorf("Quarantines = %d, want 1", st.Quarantines)
	}

	// Inside the window the poll is refused without touching the link.
	before := tr.i
	_, err := s.Poll(q1())
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("want quarantined refusal, got %v", err)
	}
	if tr.i != before {
		t.Error("refused poll still hit the transport")
	}
	if st := s.Stats(); st.SkippedPolls != 1 {
		t.Errorf("SkippedPolls = %d, want 1", st.SkippedPolls)
	}

	// Probe 1: the window opens, the probe parks the ladder at the most
	// robust rung and fails.
	clk.advance(cfg.QuarantineS + 1)
	_, err = s.Poll(q1())
	if err == nil {
		t.Fatal("probe unexpectedly succeeded")
	}
	if tr.level != 0 {
		t.Errorf("probe ran at level %d, want parked at 0", tr.level)
	}
	if h := *s.health[1]; h.FailedProbes != 1 || h.Evicted {
		t.Errorf("after probe 1: %+v", h)
	}

	// Probe 2 fails → eviction.
	clk.advance(cfg.QuarantineS + 1)
	s.Poll(q1())
	h = *s.health[1]
	if !h.Evicted {
		t.Fatalf("not evicted after %d failed probes: %+v", h.FailedProbes, h)
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	_, err = s.Poll(q1())
	if !errors.Is(err, ErrEvicted) {
		t.Fatalf("want evicted refusal, got %v", err)
	}
}

func TestSessionProbeRestoreAndRecovery(t *testing.T) {
	// Two no-sync polls quarantine the node; the probe succeeds, so the
	// parked rungs are restored and the failure episode closes.
	tr := &scriptedTransport{script: []outcome{outNoSync, outNoSync, outOK}, level: 2, maxLevel: 2}
	cfg := DefaultSessionConfig(1)
	cfg.MaxAttempts = 1
	cfg.QuarantineAfter = 2
	cfg.QuarantineS = 10
	s, clk := newTestSession(t, tr, cfg)

	s.Poll(q1())
	s.Poll(q1())
	clk.advance(cfg.QuarantineS + 1)
	reply, err := s.Poll(q1())
	if err != nil || reply == nil {
		t.Fatalf("probe failed: %v", err)
	}
	h := *s.health[1]
	if h.Quarantined || h.Evicted || h.ConsecutiveFailures != 0 || h.FailedProbes != 0 {
		t.Errorf("health not reset after rehabilitation: %+v", h)
	}
	if tr.level != 2 {
		t.Errorf("level %d after success, want parked rungs restored to 2", tr.level)
	}
	st := s.Stats()
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	// The episode spanned the quarantine wait (plus backoff-free polls).
	if st.RecoveryLatencyS < cfg.QuarantineS {
		t.Errorf("recovery latency %g s shorter than the quarantine wait", st.RecoveryLatencyS)
	}
	if got := st.MeanRecoveryS(); got != st.RecoveryLatencyS {
		t.Errorf("MeanRecoveryS() = %g, want %g", got, st.RecoveryLatencyS)
	}
}

func TestSessionSweepSkips(t *testing.T) {
	bad := &scriptedTransport{script: []outcome{outNoSync}}
	good := &scriptedTransport{script: []outcome{outOK}}
	clk := &fakeClock{}
	cfg := DefaultSessionConfig(1)
	cfg.MaxAttempts = 1
	cfg.QuarantineAfter = 1
	s, err := NewSession(map[byte]Transport{1: bad, 2: good}, cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	build := func(addr byte) frame.Query {
		return frame.Query{Dest: addr, Command: frame.CmdReadSensor}
	}
	out := s.Sweep(build)
	if out[1] != nil || out[2] == nil {
		t.Fatalf("sweep 1: %v", out)
	}
	// Node 1 is now quarantined: the next sweep must skip it entirely.
	out = s.Sweep(build)
	if _, present := out[1]; present {
		t.Error("sweep 2 polled a quarantined node")
	}
	if out[2] == nil {
		t.Error("sweep 2 lost the healthy node")
	}
}

func TestSessionUnknownDest(t *testing.T) {
	tr := &scriptedTransport{}
	s, _ := newTestSession(t, tr, DefaultSessionConfig(1))
	_, err := s.Poll(frame.Query{Dest: 99})
	var ee *ExchangeError
	if !errors.As(err, &ee) || ee.Dest != 99 {
		t.Fatalf("want typed error for unknown dest, got %v", err)
	}
}
