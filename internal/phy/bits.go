// Package phy implements PAB's physical layer: FM0 uplink modulation with
// maximum-likelihood decoding (paper §3.2, §5.1b), PWM downlink modulation
// with envelope/edge detection (§4.2.1), preamble synchronisation, carrier
// frequency offset estimation, and BER accounting.
package phy

import (
	"fmt"

	"pab/internal/dsp"
)

// Bit is a single binary symbol (0 or 1).
type Bit = byte

// BytesToBits expands bytes into bits, most significant bit first.
func BytesToBits(data []byte) []Bit {
	bits := make([]Bit, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			bits = append(bits, (b>>uint(i))&1)
		}
	}
	return bits
}

// BitsToBytes packs bits (MSB first) into bytes. The bit count must be a
// multiple of 8.
func BitsToBytes(bits []Bit) ([]byte, error) {
	return BitsToBytesInto(nil, bits)
}

// BitsToBytesInto is BitsToBytes writing into dst's backing array when
// it is large enough.
func BitsToBytesInto(dst []byte, bits []Bit) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("phy: bit count %d not a multiple of 8", len(bits))
	}
	out := dsp.Grow(dst, len(bits)/8)
	clear(out)
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("phy: bit %d has non-binary value %d", i, b)
		}
		out[i/8] = out[i/8]<<1 | b
	}
	return out, nil
}

// CountBitErrors returns the number of differing positions over the
// common prefix plus the length difference.
func CountBitErrors(a, b []Bit) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	errs := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			errs++
		}
	}
	errs += len(a) - n + len(b) - n
	return errs
}

// BER returns the bit error rate of got against want. A fully missing
// decode counts as all-errors. The divisor is the expected bit count.
func BER(want, got []Bit) float64 {
	if len(want) == 0 {
		return 0
	}
	return float64(CountBitErrors(want, got)) / float64(len(want))
}
