// Package scenario defines the versioned, JSON-round-trippable
// specification that fully determines one PAB simulation run: tank
// geometry, node placement, PHY coding and drive, MAC schedule, chaos
// profile and seed. A normalized Spec is a pure value — two specs with
// the same canonical form produce bit-identical results — so its
// canonical SHA-256 hash (see hash.go) content-addresses the run and
// lets the pabd service deduplicate and cache whole simulations.
//
// The zero Spec is not runnable; Normalize fills every unset knob with
// the paper's defaults (Pool A, the §4 node, 15 kHz FM0 uplink), so the
// minimal useful submission is `{}`. Validate accepts exactly the
// parameter space the simulator implements and rejects everything else
// with a descriptive error, making the spec safe to accept over HTTP.
package scenario

import (
	"fmt"
	"math"
	"strings"

	"pab/internal/channel"
	"pab/internal/fault"
	"pab/internal/frame"
)

// Version is the current schema version. Normalize stamps it onto
// specs submitted without one; Validate rejects versions the binary
// does not understand, so old clients fail loudly instead of silently
// running a reinterpreted scenario.
const Version = 1

// Kinds of run a Spec can describe.
const (
	// KindLink is a sample-level single-reader deployment: each node
	// gets its own Link, is powered up, and is polled MAC.Polls times.
	KindLink = "link"
	// KindChaos is the fault-injection comparison of DESIGN.md §10: the
	// named chaos profile replayed against a blind fixed-rate poller and
	// the adaptive session (fault.RunScenario).
	KindChaos = "chaos"
)

// Tank presets understood by TankSpec.
const (
	TankPoolA        = "pool_a"
	TankPoolB        = "pool_b"
	TankSwimmingPool = "swimming_pool"
)

// Spec fully determines one simulation run. Field order is the
// canonical serialization order (see hash.go); keep JSON tags stable —
// they are the public schema.
type Spec struct {
	Version int `json:"version"`
	// Name is a human label for dashboards and sweep expansion. It is
	// excluded from the canonical hash: relabeling a run must not
	// invalidate its cached result.
	Name  string     `json:"name,omitempty"`
	Kind  string     `json:"kind"`
	Seed  int64      `json:"seed"`
	Tank  TankSpec   `json:"tank"`
	Nodes []NodeSpec `json:"nodes"`
	PHY   PHYSpec    `json:"phy"`
	MAC   MACSpec    `json:"mac"`
	Chaos ChaosSpec  `json:"chaos"`
}

// TankSpec selects the water volume. Dimensions override the preset's
// when all three are positive (reflection coefficients and water
// profile still come from the preset).
type TankSpec struct {
	Preset string  `json:"preset"`
	LXM    float64 `json:"lx_m,omitempty"`
	LYM    float64 `json:"ly_m,omitempty"`
	DepthM float64 `json:"depth_m,omitempty"`
}

// NodeSpec places one battery-free node.
type NodeSpec struct {
	Addr byte `json:"addr"`
	// PosM is the node position in tank coordinates, metres.
	PosM [3]float64 `json:"pos_m"`
	// BitrateBps is the backscatter uplink bitrate.
	BitrateBps float64 `json:"bitrate_bps"`
	// TunedHz, when non-zero, gives the node a single recto-piezo
	// front end tuned there (the FDMA knob); zero keeps the paper's
	// dual 15/18 kHz front ends.
	TunedHz float64 `json:"tuned_hz,omitempty"`
	// RadialSpeedMS models drift toward (+) or away from (−) the
	// reader (§8 mobility).
	RadialSpeedMS float64 `json:"radial_speed_ms,omitempty"`
	// BatteryJ, when positive, backs the node with the §1 hybrid
	// battery.
	BatteryJ float64 `json:"battery_j,omitempty"`
}

// PHYSpec fixes the physical layer.
type PHYSpec struct {
	// Coding is the uplink line code; only "fm0" (the paper's) is
	// implemented today. The field exists so manchester/cdma variants
	// version the hash instead of aliasing it.
	Coding          string  `json:"coding"`
	SampleRateHz    float64 `json:"sample_rate_hz"`
	CarrierHz       float64 `json:"carrier_hz"`
	DriveV          float64 `json:"drive_v"`
	PWMUnitSamples  int     `json:"pwm_unit_samples"`
	NoiseRMSPa      float64 `json:"noise_rms_pa"`
	ChannelOrder    int     `json:"channel_order"`
	MaxReplyPayload int     `json:"max_reply_payload"`
}

// MACSpec fixes the interrogation schedule.
type MACSpec struct {
	// Polls is how many interrogation cycles each node receives
	// (KindLink).
	Polls int `json:"polls"`
	// MaxAttempts bounds exchanges per logical poll (KindChaos).
	MaxAttempts int `json:"max_attempts"`
	// Command is the downlink query: "ping" or "read_sensor".
	Command string `json:"command"`
	// Sensor selects the peripheral for read_sensor: "ph",
	// "temperature" or "pressure".
	Sensor string `json:"sensor,omitempty"`
	// DurationS is the simulated run length (KindChaos) and the fault
	// timeline horizon (KindLink under chaos).
	DurationS float64 `json:"duration_s"`
	// PowerUpS is the power-up budget per node, simulated seconds.
	PowerUpS float64 `json:"power_up_s"`
}

// ChaosSpec names the fault profile applied to the run. Empty means
// no injected faults ("calm" is equivalent but hashes differently —
// prefer empty).
type ChaosSpec struct {
	Profile string `json:"profile,omitempty"`
}

// Normalize fills every unset field with its default, returning the
// canonical form of the spec. It never fails; Validate reports what
// Normalize cannot repair.
func (s Spec) Normalize() Spec {
	if s.Version == 0 {
		s.Version = Version
	}
	if s.Kind == "" {
		s.Kind = KindLink
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Tank.Preset == "" {
		s.Tank.Preset = TankPoolA
	}
	if len(s.Nodes) == 0 {
		// The paper's single-link deployment: one node ~1 m from the
		// reader (core.DefaultLinkConfig).
		s.Nodes = []NodeSpec{{Addr: 0x01, PosM: [3]float64{1.2, 1.3, 0.65}}}
	}
	nodes := make([]NodeSpec, len(s.Nodes))
	copy(nodes, s.Nodes)
	for i := range nodes {
		if nodes[i].Addr == 0 {
			nodes[i].Addr = byte(i + 1)
		}
		if nodes[i].BitrateBps == 0 {
			nodes[i].BitrateBps = 500
		}
	}
	s.Nodes = nodes
	if s.PHY.Coding == "" {
		s.PHY.Coding = "fm0"
	}
	if s.PHY.SampleRateHz == 0 {
		s.PHY.SampleRateHz = 96000
	}
	if s.PHY.CarrierHz == 0 {
		s.PHY.CarrierHz = 15000
	}
	if s.PHY.DriveV == 0 {
		s.PHY.DriveV = 150
	}
	if s.PHY.PWMUnitSamples == 0 {
		s.PHY.PWMUnitSamples = 480
	}
	if s.PHY.NoiseRMSPa == 0 {
		s.PHY.NoiseRMSPa = 0.5
	}
	if s.PHY.ChannelOrder == 0 {
		s.PHY.ChannelOrder = 2
	}
	if s.PHY.MaxReplyPayload == 0 {
		s.PHY.MaxReplyPayload = 16
	}
	if s.MAC.Polls == 0 {
		s.MAC.Polls = 1
	}
	if s.MAC.MaxAttempts == 0 {
		s.MAC.MaxAttempts = 4
	}
	if s.MAC.Command == "" {
		s.MAC.Command = "ping"
	}
	if s.MAC.Command == "read_sensor" && s.MAC.Sensor == "" {
		s.MAC.Sensor = "temperature"
	}
	if s.MAC.Command != "read_sensor" {
		s.MAC.Sensor = ""
	}
	if s.MAC.DurationS == 0 {
		if s.Kind == KindChaos {
			s.MAC.DurationS = 180
		} else {
			s.MAC.DurationS = 60
		}
	}
	if s.MAC.PowerUpS == 0 {
		s.MAC.PowerUpS = 60
	}
	if s.Kind == KindChaos && s.Chaos.Profile == "" {
		s.Chaos.Profile = "calm"
	}
	return s
}

// Validate checks a *normalized* spec against the parameter space the
// simulator implements.
func (s Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("scenario: unsupported schema version %d (this build speaks %d)", s.Version, Version)
	}
	switch s.Kind {
	case KindLink, KindChaos:
	default:
		return fmt.Errorf("scenario: unknown kind %q (have %q, %q)", s.Kind, KindLink, KindChaos)
	}
	tank, err := s.Tank.Build()
	if err != nil {
		return err
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("scenario: at least one node required")
	}
	if len(s.Nodes) > 64 {
		return fmt.Errorf("scenario: %d nodes exceeds the 64-node cap", len(s.Nodes))
	}
	seen := make(map[byte]bool, len(s.Nodes))
	for i, n := range s.Nodes {
		if n.Addr == 0 {
			return fmt.Errorf("scenario: node %d: address 0 is reserved", i)
		}
		if seen[n.Addr] {
			return fmt.Errorf("scenario: duplicate node address %#02x", n.Addr)
		}
		seen[n.Addr] = true
		if n.BitrateBps <= 0 || n.BitrateBps > 100000 {
			return fmt.Errorf("scenario: node %#02x: bitrate %g bps out of (0, 100k]", n.Addr, n.BitrateBps)
		}
		if n.BatteryJ < 0 {
			return fmt.Errorf("scenario: node %#02x: negative battery capacity", n.Addr)
		}
		if math.IsNaN(n.TunedHz) || math.IsInf(n.TunedHz, 0) || n.TunedHz < 0 {
			return fmt.Errorf("scenario: node %#02x: tuned frequency %g Hz must be positive (or 0 for the dual front end)", n.Addr, n.TunedHz)
		}
		// The scattered path is Doppler-scaled by 1 + 2v/c, which must
		// stay in (0, 2) for the reply to survive as a waveform.
		if c := tank.Water.SoundSpeed(); !(math.Abs(n.RadialSpeedMS) < c/2) {
			return fmt.Errorf("scenario: node %#02x: radial speed %g m/s must be finite and below c/2 = %.4g m/s in magnitude",
				n.Addr, n.RadialSpeedMS, c/2)
		}
		if s.Kind == KindLink {
			p := n.PosM
			if p[0] <= 0 || p[0] >= tank.LX || p[1] <= 0 || p[1] >= tank.LY || p[2] <= 0 || p[2] >= tank.LZ {
				return fmt.Errorf("scenario: node %#02x at (%g, %g, %g) outside the %gx%gx%g m tank",
					n.Addr, p[0], p[1], p[2], tank.LX, tank.LY, tank.LZ)
			}
		}
	}
	if s.PHY.Coding != "fm0" {
		return fmt.Errorf("scenario: uplink coding %q not implemented (have \"fm0\")", s.PHY.Coding)
	}
	if s.PHY.SampleRateHz <= 0 || s.PHY.CarrierHz <= 0 || s.PHY.CarrierHz >= s.PHY.SampleRateHz/2 {
		return fmt.Errorf("scenario: bad rates: fs=%g carrier=%g", s.PHY.SampleRateHz, s.PHY.CarrierHz)
	}
	if s.PHY.DriveV <= 0 || s.PHY.DriveV > 1000 {
		return fmt.Errorf("scenario: drive %g V out of (0, 1000]", s.PHY.DriveV)
	}
	if s.PHY.PWMUnitSamples < 8 {
		return fmt.Errorf("scenario: PWM unit %d samples too small (min 8)", s.PHY.PWMUnitSamples)
	}
	if s.PHY.NoiseRMSPa < 0 {
		return fmt.Errorf("scenario: negative noise RMS")
	}
	if s.PHY.ChannelOrder < 1 || s.PHY.ChannelOrder > 4 {
		return fmt.Errorf("scenario: channel order %d out of [1, 4]", s.PHY.ChannelOrder)
	}
	if s.PHY.MaxReplyPayload <= 0 || s.PHY.MaxReplyPayload > frame.MaxPayload {
		return fmt.Errorf("scenario: max reply payload %d out of (0, %d]", s.PHY.MaxReplyPayload, frame.MaxPayload)
	}
	if s.MAC.Polls < 1 || s.MAC.Polls > 1000 {
		return fmt.Errorf("scenario: polls %d out of [1, 1000]", s.MAC.Polls)
	}
	if s.MAC.MaxAttempts < 1 || s.MAC.MaxAttempts > 16 {
		return fmt.Errorf("scenario: max attempts %d out of [1, 16]", s.MAC.MaxAttempts)
	}
	switch s.MAC.Command {
	case "ping":
	case "read_sensor":
		if _, err := sensorID(s.MAC.Sensor); err != nil {
			return err
		}
	default:
		return fmt.Errorf("scenario: unknown command %q (have \"ping\", \"read_sensor\")", s.MAC.Command)
	}
	if s.MAC.DurationS <= 0 || s.MAC.DurationS > 3600 {
		return fmt.Errorf("scenario: duration %g s out of (0, 3600]", s.MAC.DurationS)
	}
	if s.MAC.PowerUpS <= 0 || s.MAC.PowerUpS > 600 {
		return fmt.Errorf("scenario: power-up budget %g s out of (0, 600]", s.MAC.PowerUpS)
	}
	if s.Chaos.Profile != "" {
		if _, err := fault.ByName(s.Chaos.Profile); err != nil {
			return err
		}
	}
	return nil
}

// Build materializes the tank geometry.
func (t TankSpec) Build() (channel.Tank, error) {
	var tank channel.Tank
	switch t.Preset {
	case TankPoolA:
		tank = channel.PoolA()
	case TankPoolB:
		tank = channel.PoolB()
	case TankSwimmingPool:
		tank = channel.SwimmingPool()
	default:
		return channel.Tank{}, fmt.Errorf("scenario: unknown tank preset %q (have %q, %q, %q)",
			t.Preset, TankPoolA, TankPoolB, TankSwimmingPool)
	}
	custom := t.LXM != 0 || t.LYM != 0 || t.DepthM != 0
	if custom {
		if t.LXM < 0.5 || t.LYM < 0.5 || t.DepthM < 0.2 ||
			t.LXM > 100 || t.LYM > 100 || t.DepthM > 50 {
			return channel.Tank{}, fmt.Errorf("scenario: tank %gx%gx%g m outside [0.5,100]x[0.5,100]x[0.2,50]",
				t.LXM, t.LYM, t.DepthM)
		}
		tank.LX, tank.LY, tank.LZ = t.LXM, t.LYM, t.DepthM
	}
	return tank, nil
}

// Query builds the downlink query this spec's MAC schedule sends to
// addr.
func (m MACSpec) Query(addr byte) (frame.Query, error) {
	switch m.Command {
	case "ping":
		return frame.Query{Dest: addr, Command: frame.CmdPing}, nil
	case "read_sensor":
		id, err := sensorID(m.Sensor)
		if err != nil {
			return frame.Query{}, err
		}
		return frame.Query{Dest: addr, Command: frame.CmdReadSensor, Param: byte(id)}, nil
	}
	return frame.Query{}, fmt.Errorf("scenario: unknown command %q", m.Command)
}

func sensorID(name string) (frame.SensorID, error) {
	switch strings.ToLower(name) {
	case "ph":
		return frame.SensorPH, nil
	case "temperature":
		return frame.SensorTemperature, nil
	case "pressure":
		return frame.SensorPressure, nil
	}
	return 0, fmt.Errorf("scenario: unknown sensor %q (have \"ph\", \"temperature\", \"pressure\")", name)
}
