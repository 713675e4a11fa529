// Package pab is an open-source implementation of Piezo-Acoustic
// Backscatter (PAB) — the underwater backscatter networking system of
// Jang & Adib, "Underwater Backscatter Networking", SIGCOMM 2019 — built
// on a complete simulation of its physical substrates: piezoelectric
// transducers (Butterworth–Van Dyke model), recto-piezo matching
// networks, multi-stage rectifiers and supercapacitor power domains,
// image-method tank acoustics, and the full FM0/PWM physical layer with
// MIMO-style collision decoding.
//
// The package is a facade over the internal substrates. A minimal
// battery-free sensor exchange looks like:
//
//	link, _ := pab.NewDefaultLink()
//	link.MustPowerUp()
//	reading, _ := link.ReadSensor(pab.SensorPH)
//
// The cmd/pabsim tool and the benchmarks in bench_test.go regenerate
// every figure of the paper's evaluation; see EXPERIMENTS.md for the
// paper-vs-measured record.
package pab

import (
	"fmt"
	"io"

	"pab/internal/channel"
	"pab/internal/core"
	"pab/internal/experiments"
	"pab/internal/frame"
	"pab/internal/mac"
	"pab/internal/node"
	"pab/internal/sensors"
	"pab/internal/telemetry"
)

// Re-exported domain types. The internal packages carry the full API;
// these aliases cover what a downstream application needs.
type (
	// LinkConfig configures a single projector–node–hydrophone
	// deployment.
	LinkConfig = core.LinkConfig
	// ConcurrentConfig configures the two-node collision-decoding
	// experiment.
	ConcurrentConfig = core.ConcurrentConfig
	// Query is a downlink command frame.
	Query = frame.Query
	// DataFrame is an uplink response frame.
	DataFrame = frame.DataFrame
	// SensorID selects one of the node's peripherals.
	SensorID = frame.SensorID
	// Environment is the water the node's sensors measure.
	Environment = sensors.Environment
	// Tank is a rectangular test pool.
	Tank = channel.Tank
	// Vec3 is a position in tank coordinates.
	Vec3 = channel.Vec3
)

// Sensor identifiers (paper §6.5).
const (
	SensorPH          = frame.SensorPH
	SensorTemperature = frame.SensorTemperature
	SensorPressure    = frame.SensorPressure
)

// PoolA and PoolB return the paper's two test tanks.
func PoolA() Tank { return channel.PoolA() }

// PoolB returns the elongated 10 m corridor pool.
func PoolB() Tank { return channel.PoolB() }

// DefaultLinkConfig returns the paper's nominal single-link setup.
func DefaultLinkConfig() LinkConfig { return core.DefaultLinkConfig() }

// Link is a running single-node deployment: a projector interrogating
// one battery-free PAB node, observed by a hydrophone.
type Link struct {
	inner *core.Link
}

// SensorReading is a decoded measurement from a node.
type SensorReading struct {
	Sensor SensorID
	Value  float64
	// SNRdB is the uplink's measured signal-to-noise ratio.
	SNRdB float64
}

// NewLink deploys a battery-free node with the given address and
// backscatter bitrate into the configured tank.
func NewLink(cfg LinkConfig, addr byte, bitrateBps float64, env Environment) (*Link, error) {
	n, err := core.NewPaperNode(addr, bitrateBps, env)
	if err != nil {
		return nil, err
	}
	proj, err := core.NewPaperProjector(cfg.SampleRate)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewLink(cfg, n, proj)
	if err != nil {
		return nil, err
	}
	return &Link{inner: inner}, nil
}

// NewDefaultLink deploys the paper's nominal setup: Pool A, 15 kHz
// carrier, node address 0x01 at 500 bit/s in room-condition water.
func NewDefaultLink() (*Link, error) {
	return NewLink(DefaultLinkConfig(), 0x01, 500, sensors.RoomTank())
}

// PowerUp transmits carrier until the node boots or maxSeconds of
// simulated time pass; it reports whether the node is powered.
func (l *Link) PowerUp(maxSeconds float64) bool { return l.inner.PowerUp(maxSeconds) }

// MustPowerUp powers the node up or returns an error describing why the
// link budget fell short.
func (l *Link) MustPowerUp() error { return l.inner.EnsurePowered(120) }

// Ping interrogates the node and returns its status frame.
func (l *Link) Ping() (*DataFrame, error) {
	reply, _, _, err := l.inner.Exchange(Query{Dest: l.inner.Node().Addr(), Command: frame.CmdPing})
	if err != nil {
		return nil, err
	}
	if reply == nil {
		return nil, fmt.Errorf("pab: no reply (checksum failed or node silent)")
	}
	return reply, nil
}

// ReadSensor performs a full interrogation cycle for one sensor and
// decodes the reading.
func (l *Link) ReadSensor(id SensorID) (SensorReading, error) {
	res, err := l.inner.RunQuery(Query{
		Dest:    l.inner.Node().Addr(),
		Command: frame.CmdReadSensor,
		Param:   byte(id),
	})
	if err != nil {
		return SensorReading{}, err
	}
	if res.Decoded == nil || res.UplinkBER > 0 {
		return SensorReading{}, fmt.Errorf("pab: uplink not decoded (BER %.3f)", res.UplinkBER)
	}
	gotID, val, err := node.ParseSensorPayload(res.Decoded.Frame.Payload)
	if err != nil {
		return SensorReading{}, err
	}
	return SensorReading{Sensor: gotID, Value: val, SNRdB: res.Decoded.SNRdB()}, nil
}

// SetBitrate asks the node to switch its backscatter clock divider;
// dividerIndex selects 32768/(8·2^i) bit/s.
func (l *Link) SetBitrate(dividerIndex byte) error {
	reply, _, _, err := l.inner.Exchange(Query{
		Dest:    l.inner.Node().Addr(),
		Command: frame.CmdSetBitrate,
		Param:   dividerIndex,
	})
	if err != nil {
		return err
	}
	if reply == nil {
		return fmt.Errorf("pab: bitrate change unacknowledged")
	}
	return nil
}

// NodeBitrate returns the node's current (divider-quantised) bitrate.
func (l *Link) NodeBitrate() float64 { return l.inner.Node().Bitrate() }

// CapVoltage returns the node's supercapacitor voltage.
func (l *Link) CapVoltage() float64 { return l.inner.Node().CapVoltage() }

// Core exposes the underlying core.Link for advanced use (traces,
// custom queries, receiver access).
func (l *Link) Core() *core.Link { return l.inner }

// Transport adapts the link to the MAC layer's polling interface.
func (l *Link) Transport() mac.Transport { return l.inner.Transport() }

// NewPoller wraps the link in the ARQ polling MAC (§5.1b's CRC-driven
// retransmissions).
func (l *Link) NewPoller(maxRetries int) (*mac.Poller, error) {
	return mac.NewPoller(l.Transport(), maxRetries)
}

// FDMANetwork re-exports the multi-node FDMA deployment: a reader
// polling a fleet of recto-piezo nodes, each on its own channel.
type FDMANetwork = core.FDMANetwork

// FDMANetworkConfig configures the fleet.
type FDMANetworkConfig = core.FDMANetworkConfig

// NewFDMANetwork plans channels with the MAC's FDMA planner and deploys
// one battery-free node per channel.
func NewFDMANetwork(cfg FDMANetworkConfig, maxRetries int) (*FDMANetwork, error) {
	return core.NewFDMANetwork(cfg, maxRetries)
}

// DefaultFDMANetworkConfig returns a three-node Pool A deployment across
// 13.5–16.5 kHz.
func DefaultFDMANetworkConfig() FDMANetworkConfig { return core.DefaultFDMANetworkConfig() }

// RunExperiment regenerates one of the paper's evaluation figures (or
// an extension study) as a TSV table; see Experiments for the ids
// (fig2…fig11, sensing, baseline, mobility, scaling).
func RunExperiment(name string, w io.Writer) error {
	return experiments.Run(name, w)
}

// Experiments lists the available experiment ids.
func Experiments() []string { return experiments.Names() }

// RoomTank returns bench-demo water conditions (pH 7, 22 °C, 1 atm).
func RoomTank() Environment { return sensors.RoomTank() }

// Telemetry returns the process-wide telemetry registry that every
// layer of the signal path reports into: stage-timing spans for each
// interrogation cycle, MAC and PHY counters, and per-decode diagnostic
// reports. Use Snapshot/WriteJSON/WritePrometheusText on the result, or
// SetEnabled(false) to turn all instrumentation into no-ops.
func Telemetry() *telemetry.Registry { return telemetry.Default() }

// Trace reproduces the paper's Fig 2 demonstration on this link: the
// projector transmits CW from txStart, the node toggles its switch at
// toggleHz from bsStart, and the demodulated received amplitude is
// returned (seconds, volts).
func (l *Link) Trace(total, txStart, bsStart, toggleHz float64) (times, amplitudes []float64, err error) {
	tr, err := l.inner.RunTrace(total, txStart, bsStart, toggleHz)
	if err != nil {
		return nil, nil, err
	}
	return tr.Time, tr.Amplitude, nil
}
