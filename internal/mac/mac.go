// Package mac implements PAB's medium access control: reader-initiated
// polling (the RFID-style protocol of §3.3.2), ARQ on CRC failure
// (§5.1b: "use the CRC to perform a checksum ... and request
// retransmissions of corrupted packets"), an FDMA channel planner that
// assigns recto-piezo resonances to nodes (§3.3.1), and network
// throughput accounting for the concurrent-transmission gain of §6.3.
package mac

import (
	"fmt"
	"sort"

	"pab/internal/frame"
	"pab/internal/telemetry"
)

// Exchange is the outcome of one query/response cycle at the transport.
type Exchange struct {
	// Reply is the CRC-verified uplink frame (nil if nothing decoded).
	Reply *frame.DataFrame
	// AirtimeSeconds is the on-air duration of the cycle.
	AirtimeSeconds float64
	// SNRLinear is the receiver's SNR estimate for the uplink.
	SNRLinear float64
}

// Transport performs one interrogation cycle. core.Link provides the
// physical implementation; tests use mocks with injected failures.
type Transport interface {
	Exchange(q frame.Query) (Exchange, error)
}

// Stats accumulates MAC-level counters.
type Stats struct {
	// Polls counts logical poll operations (each may burn several
	// exchanges through ARQ).
	Polls        int
	Queries      int
	Replies      int
	Failures     int // exchanges that returned no valid frame
	Retries      int
	PayloadBytes int
	Airtime      float64 // seconds
	// Per-class failure counters (final and intermediate attempts).
	NoSync   int
	CRCFails int
	Timeouts int
}

// Merge accumulates other into s.
func (s *Stats) Merge(other Stats) {
	s.Polls += other.Polls
	s.Queries += other.Queries
	s.Replies += other.Replies
	s.Failures += other.Failures
	s.Retries += other.Retries
	s.PayloadBytes += other.PayloadBytes
	s.Airtime += other.Airtime
	s.NoSync += other.NoSync
	s.CRCFails += other.CRCFails
	s.Timeouts += other.Timeouts
}

// GoodputBps returns delivered payload bits per second of airtime.
func (s Stats) GoodputBps() float64 {
	if s.Airtime <= 0 {
		return 0
	}
	return float64(s.PayloadBytes*8) / s.Airtime
}

// DeliveryRate returns the fraction of logical polls that ultimately
// yielded a frame. Polls is counted explicitly (one per Poll call)
// rather than derived as Queries−Retries: the derived form undercounts
// the denominator when counters from pollers with different retry
// budgets are merged, letting a fully exhausted retry budget inflate
// the rate. Hand-assembled Stats without Polls fall back to the
// derived denominator, clamped so the rate never exceeds 1.
func (s Stats) DeliveryRate() float64 {
	attempts := s.Polls
	if attempts == 0 {
		attempts = s.Queries - s.Retries
	}
	if attempts <= 0 {
		return 0
	}
	rate := float64(s.Replies) / float64(attempts)
	if rate > 1 {
		rate = 1
	}
	return rate
}

// Poller drives a Transport with retries.
type Poller struct {
	// T is the underlying link.
	T Transport
	// MaxRetries bounds ARQ attempts per query (0 = no retries).
	MaxRetries int

	stats Stats
}

// NewPoller wraps a transport.
func NewPoller(t Transport, maxRetries int) (*Poller, error) {
	if t == nil {
		return nil, fmt.Errorf("mac: nil transport")
	}
	if maxRetries < 0 {
		return nil, fmt.Errorf("mac: negative retries")
	}
	return &Poller{T: t, MaxRetries: maxRetries}, nil
}

// Stats returns the accumulated counters.
func (p *Poller) Stats() Stats { return p.stats }

// Poll performs one logical query with ARQ: the query is retransmitted
// until a CRC-clean frame arrives or retries are exhausted. On failure
// the returned error is a *ExchangeError carrying the destination,
// attempt count and the failure class of the final attempt.
func (p *Poller) Poll(q frame.Query) (*frame.DataFrame, error) {
	var lastErr error
	lastClass := ClassUnknown
	p.stats.Polls++
	for attempt := 0; attempt <= p.MaxRetries; attempt++ {
		if attempt > 0 {
			p.stats.Retries++
			telemetry.Inc(telemetry.MMacRetriesTotal)
		}
		p.stats.Queries++
		telemetry.Inc(telemetry.MMacQueriesTotal)
		ex, err := p.T.Exchange(q)
		p.stats.Airtime += ex.AirtimeSeconds
		telemetry.Observe(telemetry.MMacAirtimeSeconds, ex.AirtimeSeconds)
		if ex.Reply == nil || err != nil {
			p.stats.Failures++
			telemetry.Inc(telemetry.MMacFailuresTotal)
			lastClass = Classify(ex, err)
			p.countClass(lastClass)
			lastErr = err
			continue
		}
		p.stats.Replies++
		p.stats.PayloadBytes += len(ex.Reply.Payload)
		telemetry.Inc(telemetry.MMacRepliesTotal)
		telemetry.SetLastDecodeRetries(attempt)
		return ex.Reply, nil
	}
	return nil, &ExchangeError{Dest: q.Dest, Attempts: p.MaxRetries + 1, Class: lastClass, Err: lastErr}
}

// countClass records a per-class failure in the stats and telemetry.
func (p *Poller) countClass(c FailureClass) {
	switch c {
	case ClassNoSync:
		p.stats.NoSync++
		telemetry.Inc(telemetry.MMacFailuresNoSyncTotal)
	case ClassCRC:
		p.stats.CRCFails++
		telemetry.Inc(telemetry.MMacFailuresCrcTotal)
	case ClassTimeout:
		p.stats.Timeouts++
		telemetry.Inc(telemetry.MMacFailuresTimeoutTotal)
	}
}

// ReadSensor polls a node for one sensor value.
func (p *Poller) ReadSensor(dest byte, sensor frame.SensorID) (*frame.DataFrame, error) {
	return p.Poll(frame.Query{Dest: dest, Command: frame.CmdReadSensor, Param: byte(sensor)})
}

// ---------------------------------------------------------------------------
// FDMA channel planning
// ---------------------------------------------------------------------------

// NodeInfo describes a node for channel planning.
type NodeInfo struct {
	Addr byte
	// ResonanceHz options the node's onboard matching circuits support
	// (§3.3.2's programmable recto-piezo); empty means fully tunable.
	ResonanceHz []float64
}

// Assignment maps a node to its FDMA channel.
type Assignment struct {
	Addr        byte
	FrequencyHz float64
	// CircuitIndex is the matching-circuit index to select via
	// CmdSwitchResonance (−1 when the node is fully tunable).
	CircuitIndex int
}

// PlanFDMA assigns distinct channels within [lowHz, highHz], at least
// spacingHz apart, to the given nodes. Nodes with fixed circuit options
// are placed first (most constrained first); fully tunable nodes fill
// remaining slots. The paper's tunability discussion (§8) notes the FDMA
// gain "scales as the number of nodes with different resonance
// frequencies increases" but is bounded by transducer bandwidth — which
// is exactly the spacing constraint here.
func PlanFDMA(nodes []NodeInfo, lowHz, highHz, spacingHz float64) ([]Assignment, error) {
	if !(0 < lowHz && lowHz < highHz) || spacingHz <= 0 {
		return nil, fmt.Errorf("mac: bad band [%g, %g] / spacing %g", lowHz, highHz, spacingHz)
	}
	slots := int((highHz-lowHz)/spacingHz) + 1
	if len(nodes) > slots {
		return nil, fmt.Errorf("mac: %d nodes exceed %d channels in [%g, %g] at %g spacing",
			len(nodes), slots, lowHz, highHz, spacingHz)
	}
	// Sort: constrained nodes (fewest options) first, stable by address.
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		na, nb := len(nodes[order[a]].ResonanceHz), len(nodes[order[b]].ResonanceHz)
		if na == 0 {
			na = 1 << 30
		}
		if nb == 0 {
			nb = 1 << 30
		}
		return na < nb
	})
	used := make([]float64, 0, len(nodes))
	farEnough := func(f float64) bool {
		for _, u := range used {
			if diff := f - u; diff < spacingHz && diff > -spacingHz {
				return false
			}
		}
		return true
	}
	out := make([]Assignment, len(nodes))
	for _, idx := range order {
		n := nodes[idx]
		assigned := false
		if len(n.ResonanceHz) > 0 {
			for ci, f := range n.ResonanceHz {
				if f >= lowHz && f <= highHz && farEnough(f) {
					out[idx] = Assignment{Addr: n.Addr, FrequencyHz: f, CircuitIndex: ci}
					used = append(used, f)
					assigned = true
					break
				}
			}
		} else {
			for s := 0; s < slots; s++ {
				f := lowHz + float64(s)*spacingHz
				if f > highHz {
					break
				}
				if farEnough(f) {
					out[idx] = Assignment{Addr: n.Addr, FrequencyHz: f, CircuitIndex: -1}
					used = append(used, f)
					assigned = true
					break
				}
			}
		}
		if !assigned {
			return nil, fmt.Errorf("mac: no channel available for node %02x", n.Addr)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Round-robin network polling
// ---------------------------------------------------------------------------

// Network polls a set of nodes, each over its own transport (one per
// FDMA channel).
type Network struct {
	pollers map[byte]*Poller
	order   []byte
}

// NewNetwork builds a polling network from per-node transports.
func NewNetwork(transports map[byte]Transport, maxRetries int) (*Network, error) {
	if len(transports) == 0 {
		return nil, fmt.Errorf("mac: no transports")
	}
	n := &Network{pollers: make(map[byte]*Poller, len(transports))}
	for addr := range transports {
		n.order = append(n.order, addr)
	}
	sort.Slice(n.order, func(a, b int) bool { return n.order[a] < n.order[b] })
	// Build pollers in address order so the first failure is the same
	// one on every run.
	for _, addr := range n.order {
		p, err := NewPoller(transports[addr], maxRetries)
		if err != nil {
			return nil, err
		}
		n.pollers[addr] = p
	}
	return n, nil
}

// Round performs one round-robin pass, issuing the query builder's query
// to every node in address order. Results are keyed by address; failed
// nodes map to nil.
func (n *Network) Round(build func(addr byte) frame.Query) map[byte]*frame.DataFrame {
	sp := telemetry.StartSpan("mac_round")
	defer sp.End()
	telemetry.Inc(telemetry.MMacRoundsTotal)
	out := make(map[byte]*frame.DataFrame, len(n.order))
	for _, addr := range n.order {
		reply, err := n.pollers[addr].Poll(build(addr))
		if err != nil {
			out[addr] = nil
			continue
		}
		out[addr] = reply
	}
	return out
}

// Stats aggregates counters across all nodes.
func (n *Network) Stats() Stats {
	var total Stats
	for _, p := range n.pollers {
		total.Merge(p.Stats())
	}
	return total
}

// ConcurrentThroughputGain returns the network throughput multiplier of
// polling groups of `concurrency` nodes simultaneously (the paper's
// doubling with two recto-piezos, §6.3) with a per-stream efficiency
// penalty from collision-decoding overhead.
func ConcurrentThroughputGain(concurrency int, streamEfficiency float64) (float64, error) {
	if concurrency < 1 {
		return 0, fmt.Errorf("mac: concurrency must be ≥ 1")
	}
	if streamEfficiency <= 0 || streamEfficiency > 1 {
		return 0, fmt.Errorf("mac: stream efficiency must be in (0, 1]")
	}
	return float64(concurrency) * streamEfficiency, nil
}
