package core

import (
	"fmt"
	"sort"

	"pab/internal/channel"
	"pab/internal/frame"
	"pab/internal/mac"
	"pab/internal/node"
	"pab/internal/sensors"
	"pab/internal/telemetry"
	"pab/internal/units"
)

// FDMANode describes one sensor node of a polled network.
type FDMANode struct {
	Addr       byte
	Pos        channel.Vec3
	BitrateBps float64
	// BatteryJ > 0 makes the node battery-assisted.
	BatteryJ float64
	Env      sensors.Environment
}

// FDMANetworkConfig describes a reader plus a fleet of recto-piezo
// nodes sharing a tank, each assigned its own resonance channel
// (§3.3.1: "different sensors have different resonance frequencies ...
// naturally leading to FDMA").
type FDMANetworkConfig struct {
	Tank          channel.Tank
	SampleRate    float64
	DriveV        float64
	PWMUnit       int
	ProjectorPos  channel.Vec3
	HydrophonePos channel.Vec3
	Nodes         []FDMANode
	// BandLow/BandHigh bound the usable acoustic band; SpacingHz is the
	// per-channel separation (the recto-piezo bandwidth).
	BandLow, BandHigh, SpacingHz float64
	NoiseRMS                     float64
	ChannelOrder                 int
	Seed                         int64
}

// DefaultFDMANetworkConfig returns a three-node deployment in Pool A
// across the 13.5–16.5 kHz band.
func DefaultFDMANetworkConfig() FDMANetworkConfig {
	base := DefaultLinkConfig()
	return FDMANetworkConfig{
		Tank:          base.Tank,
		SampleRate:    base.SampleRate,
		DriveV:        base.DriveV,
		PWMUnit:       base.PWMUnit,
		ProjectorPos:  base.ProjectorPos,
		HydrophonePos: base.HydrophonePos,
		Nodes: []FDMANode{
			{Addr: 0x11, Pos: channel.Vec3{X: 1.2, Y: 1.3, Z: 0.65}, BitrateBps: 500, Env: sensors.RoomTank()},
			{Addr: 0x12, Pos: channel.Vec3{X: 1.9, Y: 2.1, Z: 0.55}, BitrateBps: 500, Env: sensors.RoomTank()},
			{Addr: 0x13, Pos: channel.Vec3{X: 0.9, Y: 2.4, Z: 0.7}, BitrateBps: 500, Env: sensors.RoomTank()},
		},
		BandLow:      13500,
		BandHigh:     16500,
		SpacingHz:    1500,
		NoiseRMS:     base.NoiseRMS,
		ChannelOrder: base.ChannelOrder,
		Seed:         1,
	}
}

// FDMANetwork is a deployed fleet: one physical link per node, each on
// its assigned channel, plus the MAC's polling machinery. The reader
// addresses one node per query (round-robin time division); the FDMA
// assignment means every node's front end stays matched to its own
// channel, so no retuning happens between queries — and pairs of
// adjacent channels can be upgraded to concurrent operation with
// RunConcurrent.
type FDMANetwork struct {
	cfg   FDMANetworkConfig
	plan  []mac.Assignment
	links map[byte]*Link
	net   *mac.Network
}

// NewFDMANetwork plans channels and deploys the fleet.
func NewFDMANetwork(cfg FDMANetworkConfig, maxRetries int) (*FDMANetwork, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("core: no nodes")
	}
	infos := make([]mac.NodeInfo, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		infos[i] = mac.NodeInfo{Addr: n.Addr} // fully tunable recto-piezos
	}
	plan, err := mac.PlanFDMA(infos, cfg.BandLow, cfg.BandHigh, cfg.SpacingHz)
	if err != nil {
		return nil, err
	}

	links := make(map[byte]*Link, len(cfg.Nodes))
	transports := make(map[byte]mac.Transport, len(cfg.Nodes))
	for i, spec := range cfg.Nodes {
		lcfg := LinkConfig{
			Tank:          cfg.Tank,
			SampleRate:    cfg.SampleRate,
			CarrierHz:     plan[i].FrequencyHz,
			DriveV:        cfg.DriveV,
			PWMUnit:       cfg.PWMUnit,
			ProjectorPos:  cfg.ProjectorPos,
			HydrophonePos: cfg.HydrophonePos,
			NodePos:       spec.Pos,
			NoiseRMS:      cfg.NoiseRMS,
			ChannelOrder:  cfg.ChannelOrder,
			Seed:          cfg.Seed + int64(i),
		}
		var nd *node.Node
		if spec.BatteryJ > 0 {
			nd, err = NewBatteryAssistedNode(spec.Addr, spec.BitrateBps, spec.BatteryJ, spec.Env)
		} else {
			nd, err = newTunedNode(spec.Addr, spec.BitrateBps, plan[i].FrequencyHz, spec.Env)
		}
		if err != nil {
			return nil, fmt.Errorf("core: node %02x: %w", spec.Addr, err)
		}
		proj, err := NewPaperProjector(cfg.SampleRate)
		if err != nil {
			return nil, err
		}
		link, err := NewLink(lcfg, nd, proj)
		if err != nil {
			return nil, fmt.Errorf("core: link %02x: %w", spec.Addr, err)
		}
		links[spec.Addr] = link
		transports[spec.Addr] = link.Transport()
	}
	net, err := mac.NewNetwork(transports, maxRetries)
	if err != nil {
		return nil, err
	}
	telemetry.Set(telemetry.MCoreFdmaChannels, float64(len(plan)))
	return &FDMANetwork{cfg: cfg, plan: plan, links: links, net: net}, nil
}

// newTunedNode builds a node whose single matching circuit is tuned to
// the assigned channel frequency.
func newTunedNode(addr byte, bitrate, tunedHz float64, env sensors.Environment) (*node.Node, error) {
	n, err := NewPaperNode(addr, bitrate, env)
	if err != nil {
		return nil, err
	}
	// NewPaperNode carries 15 kHz and 18 kHz circuits; for other
	// channels rebuild with the assigned tuning.
	if units.ApproxEqual(tunedHz, 15000, 1e-9) {
		return n, nil
	}
	return NewTunedNode(addr, bitrate, tunedHz, env)
}

// Transport adapts the link to the MAC layer's polling interface.
func (l *Link) Transport() mac.Transport { return linkTransport{l} }

// linkTransport exposes a Link as a mac.Transport.
type linkTransport struct{ l *Link }

// Exchange implements mac.Transport.
func (t linkTransport) Exchange(q frame.Query) (mac.Exchange, error) {
	reply, airtime, snr, err := t.l.Exchange(q)
	if err != nil {
		return mac.Exchange{}, err
	}
	return mac.Exchange{Reply: reply, AirtimeSeconds: airtime, SNRLinear: snr}, nil
}

// Plan returns the channel assignments.
func (n *FDMANetwork) Plan() []mac.Assignment { return n.plan }

// Link returns the physical link for one node.
func (n *FDMANetwork) Link(addr byte) *Link { return n.links[addr] }

// PowerUpAll charges every node in address order; it returns the first
// failure (deterministic: map iteration order must not pick the error).
func (n *FDMANetwork) PowerUpAll(maxSeconds float64) error {
	addrs := make([]byte, 0, len(n.links))
	for addr := range n.links {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		if err := n.links[addr].EnsurePowered(maxSeconds); err != nil {
			return fmt.Errorf("core: node %02x: %w", addr, err)
		}
	}
	return nil
}

// Round polls every node once with the query builder (round-robin time
// division across the FDMA channels).
func (n *FDMANetwork) Round(build func(addr byte) frame.Query) map[byte]*frame.DataFrame {
	return n.net.Round(build)
}

// Stats returns the aggregated MAC counters.
func (n *FDMANetwork) Stats() mac.Stats { return n.net.Stats() }
