// Package frame defines PAB's link-layer packet formats (paper §3.3.2):
// the downlink query — "a preamble, destination address, and payload"
// carrying commands such as setting the backscatter link frequency,
// switching resonance mode, or requesting sensor data (§5.1a) — and the
// uplink backscatter packet — "a preamble, a header, and a payload which
// includes readings from on-board sensors" — both protected by a CRC
// (§5.1b: "it can also use the CRC to perform a checksum ... and request
// retransmissions of corrupted packets").
package frame

import (
	"errors"
	"fmt"

	"pab/internal/phy"
)

// Command identifies a downlink query operation.
type Command byte

// Downlink commands (§5.1a).
const (
	// CmdPing requests an immediate uplink reply with no sensor payload.
	CmdPing Command = 0x01
	// CmdSetBitrate sets the node's backscatter bitrate; Param carries a
	// clock-divider index.
	CmdSetBitrate Command = 0x02
	// CmdSwitchResonance selects among the node's onboard matching
	// circuits (the programmable recto-piezo extension, §3.3.2); Param
	// is the circuit index.
	CmdSwitchResonance Command = 0x03
	// CmdReadSensor requests a sensed value; Param selects the sensor.
	CmdReadSensor Command = 0x04
)

// String names the command.
func (c Command) String() string {
	switch c {
	case CmdPing:
		return "ping"
	case CmdSetBitrate:
		return "set-bitrate"
	case CmdSwitchResonance:
		return "switch-resonance"
	case CmdReadSensor:
		return "read-sensor"
	default:
		return fmt.Sprintf("command(0x%02x)", byte(c))
	}
}

// SensorID selects a peripheral in CmdReadSensor queries.
type SensorID byte

// The sensing applications of §6.5.
const (
	SensorPH SensorID = iota + 1
	SensorTemperature
	SensorPressure
)

// String names the sensor.
func (s SensorID) String() string {
	switch s {
	case SensorPH:
		return "pH"
	case SensorTemperature:
		return "temperature"
	case SensorPressure:
		return "pressure"
	default:
		return fmt.Sprintf("sensor(%d)", byte(s))
	}
}

// BroadcastAddr addresses every node in range.
const BroadcastAddr = 0xFF

// Query is a downlink frame.
type Query struct {
	Dest    byte // node address, or BroadcastAddr
	Command Command
	Param   byte
}

// queryLen is the marshalled length: dest + cmd + param + crc16.
const queryLen = 5

// Marshal serialises the query with its CRC.
func (q Query) Marshal() []byte {
	buf := []byte{q.Dest, byte(q.Command), q.Param}
	crc := Checksum(buf)
	return append(buf, byte(crc>>8), byte(crc))
}

// UnmarshalQuery parses and CRC-checks a downlink frame.
func UnmarshalQuery(data []byte) (Query, error) {
	if len(data) != queryLen {
		return Query{}, fmt.Errorf("frame: query length %d, want %d", len(data), queryLen)
	}
	want := uint16(data[3])<<8 | uint16(data[4])
	if got := Checksum(data[:3]); got != want {
		return Query{}, fmt.Errorf("frame: query CRC mismatch: got %04x, want %04x", got, want)
	}
	return Query{Dest: data[0], Command: Command(data[1]), Param: data[2]}, nil
}

// DataFrame is an uplink backscatter packet.
type DataFrame struct {
	Source  byte   // node address
	Seq     byte   // sequence number for ARQ
	Payload []byte // sensor readings or status
}

// MaxPayload bounds the uplink payload so a frame stays well inside the
// coherence budget of the slow backscatter link.
const MaxPayload = 64

// Marshal serialises the frame: source, seq, length, payload, CRC-16.
func (d DataFrame) Marshal() ([]byte, error) {
	if len(d.Payload) > MaxPayload {
		return nil, fmt.Errorf("frame: payload %d bytes exceeds max %d", len(d.Payload), MaxPayload)
	}
	buf := make([]byte, 0, 3+len(d.Payload)+2)
	buf = append(buf, d.Source, d.Seq, byte(len(d.Payload)))
	buf = append(buf, d.Payload...)
	crc := Checksum(buf)
	return append(buf, byte(crc>>8), byte(crc)), nil
}

// ErrDataCRC is an uplink frame whose CRC does not match its body: the
// receiver's usual miss on a candidate lock, so it is a constant that
// costs no allocation.
var ErrDataCRC = errors.New("frame: data CRC mismatch")

// UnmarshalDataFrame parses and CRC-checks an uplink frame.
func UnmarshalDataFrame(data []byte) (DataFrame, error) {
	if len(data) < 5 {
		return DataFrame{}, fmt.Errorf("frame: data frame too short: %d bytes", len(data))
	}
	n := int(data[2])
	if n > MaxPayload {
		return DataFrame{}, fmt.Errorf("frame: declared payload %d exceeds max %d", n, MaxPayload)
	}
	if len(data) != 3+n+2 {
		return DataFrame{}, fmt.Errorf("frame: length %d inconsistent with payload %d", len(data), n)
	}
	body := data[:3+n]
	want := uint16(data[3+n])<<8 | uint16(data[3+n+1])
	if got := Checksum(body); got != want {
		return DataFrame{}, ErrDataCRC
	}
	df := DataFrame{Source: data[0], Seq: data[1]}
	if n > 0 {
		df.Payload = make([]byte, n)
		copy(df.Payload, data[3:3+n])
	}
	return df, nil
}

// Checksum computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) — the
// CRC RFID-class links use.
func Checksum(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// Bits returns the frame bits for transmission, MSB first.
func Bits(marshalled []byte) []phy.Bit {
	return phy.BytesToBits(marshalled)
}

// FromBits reassembles bytes from received bits; the count must be a
// multiple of 8.
func FromBits(bits []phy.Bit) ([]byte, error) {
	return phy.BitsToBytes(bits)
}

// QueryBitLength is the downlink frame length in bits (after the
// preamble).
const QueryBitLength = queryLen * 8

// DataFrameBitLength returns the uplink frame length in bits for a given
// payload size (after the preamble).
func DataFrameBitLength(payloadBytes int) int {
	return (3 + payloadBytes + 2) * 8
}
