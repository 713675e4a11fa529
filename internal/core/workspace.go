package core

import (
	"pab/internal/dsp"
	"pab/internal/phy"
)

// workspace is a Receiver's decode scratch. Its buffers only grow and
// are reused from call to call; its codecs and channel filters are
// built once per samples-per-bit and per cutoff. A decode result never
// points into it: Decoded copies what it keeps.
type workspace struct {
	// The chain's sample-length buffers, in pipeline order.
	volts []float64    // hydrophone output
	bb    []complex128 // gated baseband
	cfo   []complex128 // CFO-corrected copy of the baseband

	// Projections: the whole-stream coarse pass, one candidate's
	// refine window, and the block-tracked fallback for drifting nodes.
	coarse, refine, tracked []float64
	// Spans a lock decodes: header, packet, and the packet on the axis
	// re-estimated over the CRC-confirmed extent.
	header, packet, refined []float64

	hdrBits, bits, preBits []phy.Bit
	allBits                []phy.Bit // preamble + payload, the SNR reference
	means                  []float64 // SNR decision variables
	trellis                phy.Trellis

	cands []phy.Sync
	locks []refinedLock

	// detect is the one correlator scratch every codec's detector works
	// in, so several bitrates keep one recording-length copy alive.
	detect  phy.DetectScratch
	codecs  map[int]*codec
	filters map[filterKey]*dsp.IIR
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
