package core

import (
	"pab/internal/dsp"
	"pab/internal/phy"
)

// workspace is a Receiver's decode scratch. Its buffers only grow and
// are reused from call to call; its codecs, channel filters and carrier
// phasors are built once per samples-per-bit, per cutoff and per
// carrier. A decode result never points into it: Decoded copies what
// it keeps.
type workspace struct {
	// volts is one block of hydrophone output: the front end converts
	// and demodulates a recording a block at a time.
	volts []float64
	// bb is the gated baseband, CFO-corrected in place on the batch
	// path; DecodeBaseband writes its corrected copy of the caller's
	// stream here.
	bb []complex128
	// coarse is the whole-stream projection of the coarse pass, and
	// then of the block-tracked fallback for drifting nodes; refine is
	// one candidate's refine window. These and bb are the only buffers
	// as long as the recording.
	coarse, refine []float64
	// Spans a lock decodes: header, packet, and the packet on the axis
	// re-estimated over the CRC-confirmed extent.
	header, packet, refined []float64

	hdrBits, bits, preBits []phy.Bit
	allBits                []phy.Bit // preamble + payload, the SNR reference
	frame                  []byte    // the decoded frame's bytes
	means                  []float64 // SNR decision variables
	trellis                phy.Trellis

	cands []phy.Sync
	locks []refinedLock

	// detect is the one correlator scratch every codec's detector works
	// in, so several bitrates share one scan window.
	detect  phy.DetectScratch
	codecs  map[int]*codec
	filters map[filterKey]*dsp.IIR
	phasors map[carrierKey]*dsp.Phasor
}

// codec is the FM0 line code and preamble detector for one
// samples-per-bit.
type codec struct {
	fm0 *phy.FM0
	det *phy.Detector
}

// codec returns the cached codec for spb, building it on first use.
func (ws *workspace) codec(spb int) (*codec, error) {
	if c, ok := ws.codecs[spb]; ok {
		return c, nil
	}
	fm0, err := phy.NewFM0(spb)
	if err != nil {
		return nil, err
	}
	c := &codec{fm0: fm0, det: phy.NewSharedDetector(fm0, &ws.detect)}
	if ws.codecs == nil {
		ws.codecs = make(map[int]*codec)
	}
	ws.codecs[spb] = c
	return c, nil
}

// filterKey identifies a channel filter design.
type filterKey struct{ fs, cutoff float64 }

// filter returns the cached FilterOrder Butterworth low-pass at cutoff
// for sample rate fs, designing it on first use.
func (ws *workspace) filter(fs, cutoff float64) (*dsp.IIR, error) {
	key := filterKey{fs, cutoff}
	if lp, ok := ws.filters[key]; ok {
		return lp, nil
	}
	lp, err := dsp.DesignButterworthLowpass(cutoff, fs, FilterOrder)
	if err != nil {
		return nil, err
	}
	if ws.filters == nil {
		ws.filters = make(map[filterKey]*dsp.IIR)
	}
	ws.filters[key] = lp
	return lp, nil
}

// carrierKey identifies a carrier at a sample rate.
type carrierKey struct{ fc, fs float64 }

// phasor returns the cached phasor of the carrier fc at sample rate fs,
// building it on first use.
func (ws *workspace) phasor(fc, fs float64) *dsp.Phasor {
	key := carrierKey{fc, fs}
	if p, ok := ws.phasors[key]; ok {
		return p
	}
	p := dsp.NewPhasor(fc, fs)
	if ws.phasors == nil {
		ws.phasors = make(map[carrierKey]*dsp.Phasor)
	}
	ws.phasors[key] = p
	return p
}
