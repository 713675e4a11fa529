package fault

import (
	"fmt"
	"hash/fnv"
	"io"

	"pab/internal/frame"
	"pab/internal/mac"
)

// ScenarioConfig tunes a chaos run.
type ScenarioConfig struct {
	// DurationS is the simulated run length (default 180).
	DurationS float64
	// Nodes is the population size, addressed 1..Nodes (default 4).
	Nodes int
	// MaxAttempts bounds exchanges per logical poll for both strategies
	// (default 4).
	MaxAttempts int
	// Session overrides the adaptive strategy's tuning; the zero value
	// uses mac.DefaultSessionConfig(seed) with MaxAttempts applied.
	Session *mac.SessionConfig
}

// DefaultScenarioConfig returns the defaults above.
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{DurationS: 180, Nodes: 4, MaxAttempts: 4}
}

// StrategyReport is one strategy's outcome over a chaos run.
type StrategyReport struct {
	Name string `json:"name"`
	// DeliveredBytes is total CRC-clean payload delivered.
	DeliveredBytes int `json:"delivered_bytes"`
	// GoodputBps is delivered payload bits per second of simulated run
	// time — the headline number (airtime-relative goodput would hide
	// time wasted hammering a jammed channel).
	GoodputBps   float64 `json:"goodput_bps"`
	Polls        int     `json:"polls"`
	Replies      int     `json:"replies"`
	Failures     int     `json:"failures"`
	Retries      int     `json:"retries"`
	NoSync       int     `json:"no_sync"`
	CRCFails     int     `json:"crc_fails"`
	Timeouts     int     `json:"timeouts"`
	DeliveryRate float64 `json:"delivery_rate"`
	AirtimeS     float64 `json:"airtime_s"`
	// Session-only resilience counters (zero for the blind strategy).
	BackoffS      float64 `json:"backoff_s"`
	Downshifts    int     `json:"downshifts"`
	Upshifts      int     `json:"upshifts"`
	Quarantines   int     `json:"quarantines"`
	Evictions     int     `json:"evictions"`
	SkippedPolls  int     `json:"skipped_polls"`
	Recoveries    int     `json:"recoveries"`
	MeanRecoveryS float64 `json:"mean_recovery_s"`
}

// Report is the outcome of one blind-vs-adaptive chaos comparison.
// Every field is a pure function of (profile, seed, config), so two
// runs with identical inputs produce byte-identical reports — asserted
// by the Fingerprint.
type Report struct {
	Profile   string  `json:"profile"`
	Seed      int64   `json:"seed"`
	DurationS float64 `json:"duration_s"`
	Nodes     int     `json:"nodes"`
	// FaultCounts are the adaptive run's per-class injection counts.
	FaultCounts []ClassCount   `json:"fault_counts"`
	Blind       StrategyReport `json:"blind"`
	Adaptive    StrategyReport `json:"adaptive"`
	// AdvantageX is adaptive goodput over blind goodput.
	AdvantageX float64 `json:"advantage_x"`
	// Fingerprint is an FNV-1a hash over every deterministic field
	// above; equal seeds must yield equal fingerprints.
	Fingerprint uint64 `json:"fingerprint"`
}

// RunScenario runs the named profile at the given seed twice — once
// with the blind fixed-rate Poller network, once with the adaptive
// Session — on freshly built engines so both strategies face the exact
// same fault timelines.
func RunScenario(profileName string, seed int64, cfg ScenarioConfig) (*Report, error) {
	p, err := ByName(profileName)
	if err != nil {
		return nil, err
	}
	if cfg.DurationS <= 0 {
		cfg.DurationS = 180
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	nodes := make([]byte, cfg.Nodes)
	for i := range nodes {
		nodes[i] = byte(i + 1)
	}

	blind, _, err := runBlind(p, seed, cfg, nodes)
	if err != nil {
		return nil, err
	}
	adaptive, faults, err := runAdaptive(p, seed, cfg, nodes)
	if err != nil {
		return nil, err
	}

	r := &Report{
		Profile:     p.Name,
		Seed:        seed,
		DurationS:   cfg.DurationS,
		Nodes:       cfg.Nodes,
		FaultCounts: faults,
		Blind:       blind,
		Adaptive:    adaptive,
	}
	switch {
	case blind.GoodputBps > 0:
		r.AdvantageX = adaptive.GoodputBps / blind.GoodputBps
	case adaptive.GoodputBps > 0:
		r.AdvantageX = -1 // adaptive delivered, blind delivered nothing
	}
	r.Fingerprint = r.fingerprint()
	return r, nil
}

// buildQuery is the workload both strategies run: read the temperature
// sensor of each node in turn.
func buildQuery(addr byte) frame.Query {
	return frame.Query{Dest: addr, Command: frame.CmdReadSensor, Param: byte(frame.SensorTemperature)}
}

func runBlind(p Profile, seed int64, cfg ScenarioConfig, nodes []byte) (StrategyReport, []ClassCount, error) {
	eng, err := NewEngine(p, seed, cfg.DurationS, nodes)
	if err != nil {
		return StrategyReport{}, nil, err
	}
	ls := NewLinkSim(eng, nodes, false)
	net, err := mac.NewNetwork(ls.Transports(), cfg.MaxAttempts-1)
	if err != nil {
		return StrategyReport{}, nil, err
	}
	for eng.Now() < cfg.DurationS {
		net.Round(buildQuery)
	}
	st := net.Stats()
	rep := StrategyReport{
		Name:           "blind",
		DeliveredBytes: st.PayloadBytes,
		GoodputBps:     float64(st.PayloadBytes*8) / cfg.DurationS,
		Polls:          st.Polls,
		Replies:        st.Replies,
		Failures:       st.Failures,
		Retries:        st.Retries,
		NoSync:         st.NoSync,
		CRCFails:       st.CRCFails,
		Timeouts:       st.Timeouts,
		DeliveryRate:   st.DeliveryRate(),
		AirtimeS:       st.Airtime,
	}
	return rep, eng.Counts(), nil
}

func runAdaptive(p Profile, seed int64, cfg ScenarioConfig, nodes []byte) (StrategyReport, []ClassCount, error) {
	eng, err := NewEngine(p, seed, cfg.DurationS, nodes)
	if err != nil {
		return StrategyReport{}, nil, err
	}
	ls := NewLinkSim(eng, nodes, true)
	scfg := mac.DefaultSessionConfig(seed)
	if cfg.Session != nil {
		scfg = *cfg.Session
	}
	scfg.MaxAttempts = cfg.MaxAttempts
	scfg.Seed = seed
	sess, err := mac.NewSession(ls.Transports(), scfg, eng)
	if err != nil {
		return StrategyReport{}, nil, err
	}
	for eng.Now() < cfg.DurationS {
		before := eng.Now()
		sess.Sweep(buildQuery)
		//pablint:ignore floatcmp simulated clock only moves via explicit Advance; exact equality detects a stalled sweep
		if eng.Now() == before {
			// Every node skipped (quarantined/evicted): idle a beat so
			// simulated time still advances.
			eng.Advance(0.1)
		}
	}
	st := sess.Stats()
	rep := StrategyReport{
		Name:           "adaptive",
		DeliveredBytes: st.PayloadBytes,
		GoodputBps:     float64(st.PayloadBytes*8) / cfg.DurationS,
		Polls:          st.Polls,
		Replies:        st.Replies,
		Failures:       st.Failures,
		Retries:        st.Retries,
		NoSync:         st.NoSync,
		CRCFails:       st.CRCFails,
		Timeouts:       st.Timeouts,
		DeliveryRate:   st.DeliveryRate(),
		AirtimeS:       st.Airtime,
		BackoffS:       st.BackoffSeconds,
		Downshifts:     st.Downshifts,
		Upshifts:       st.Upshifts,
		Quarantines:    st.Quarantines,
		Evictions:      st.Evictions,
		SkippedPolls:   st.SkippedPolls,
		Recoveries:     st.Recoveries,
		MeanRecoveryS:  st.MeanRecoveryS(),
	}
	return rep, eng.Counts(), nil
}

// fingerprint hashes every deterministic report field in fixed order.
func (r *Report) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%g|%d", r.Profile, r.Seed, r.DurationS, r.Nodes)
	for _, c := range r.FaultCounts {
		fmt.Fprintf(h, "|%s=%d", c.Class, c.Count)
	}
	for _, s := range []StrategyReport{r.Blind, r.Adaptive} {
		fmt.Fprintf(h, "|%s:%d:%.9g:%d:%d:%d:%d:%d:%d:%d:%.9g:%.9g:%.9g:%d:%d:%d:%d:%d:%d:%.9g",
			s.Name, s.DeliveredBytes, s.GoodputBps, s.Polls, s.Replies, s.Failures,
			s.Retries, s.NoSync, s.CRCFails, s.Timeouts, s.DeliveryRate, s.AirtimeS,
			s.BackoffS, s.Downshifts, s.Upshifts, s.Quarantines, s.Evictions,
			s.SkippedPolls, s.Recoveries, s.MeanRecoveryS)
	}
	fmt.Fprintf(h, "|adv=%.9g", r.AdvantageX)
	return h.Sum64()
}

// WriteText renders the report for a terminal.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "chaos profile %q  seed %d  %.0fs simulated  %d nodes\n",
		r.Profile, r.Seed, r.DurationS, r.Nodes)
	fmt.Fprintf(w, "fingerprint %016x\n\n", r.Fingerprint)
	fmt.Fprintf(w, "injected faults:\n")
	for _, c := range r.FaultCounts {
		if c.Count > 0 {
			fmt.Fprintf(w, "  %-12s %d\n", c.Class, c.Count)
		}
	}
	fmt.Fprintf(w, "\n%-22s %12s %12s\n", "", "blind", "adaptive")
	row := func(label, format string, b, a interface{}) {
		fmt.Fprintf(w, "%-22s %12s %12s\n", label, fmt.Sprintf(format, b), fmt.Sprintf(format, a))
	}
	row("goodput (bps)", "%.1f", r.Blind.GoodputBps, r.Adaptive.GoodputBps)
	row("delivered (bytes)", "%d", r.Blind.DeliveredBytes, r.Adaptive.DeliveredBytes)
	row("delivery rate", "%.3f", r.Blind.DeliveryRate, r.Adaptive.DeliveryRate)
	row("polls", "%d", r.Blind.Polls, r.Adaptive.Polls)
	row("failures (no-sync)", "%d", r.Blind.NoSync, r.Adaptive.NoSync)
	row("failures (crc)", "%d", r.Blind.CRCFails, r.Adaptive.CRCFails)
	row("failures (timeout)", "%d", r.Blind.Timeouts, r.Adaptive.Timeouts)
	row("airtime (s)", "%.1f", r.Blind.AirtimeS, r.Adaptive.AirtimeS)
	row("backoff (s)", "%.1f", r.Blind.BackoffS, r.Adaptive.BackoffS)
	row("downshifts", "%d", r.Blind.Downshifts, r.Adaptive.Downshifts)
	row("upshifts", "%d", r.Blind.Upshifts, r.Adaptive.Upshifts)
	row("quarantines", "%d", r.Blind.Quarantines, r.Adaptive.Quarantines)
	row("evictions", "%d", r.Blind.Evictions, r.Adaptive.Evictions)
	row("mean recovery (s)", "%.2f", r.Blind.MeanRecoveryS, r.Adaptive.MeanRecoveryS)
	if r.AdvantageX > 0 {
		fmt.Fprintf(w, "\nadaptive advantage: %.2fx goodput\n", r.AdvantageX)
	} else if r.AdvantageX < 0 {
		fmt.Fprintf(w, "\nadaptive advantage: blind delivered nothing\n")
	}
}
