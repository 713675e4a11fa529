// Package core wires the PAB system together: projector → tank channel →
// battery-free node → hydrophone → offline decoder, at the sample level.
// It is the paper's primary contribution — underwater backscatter
// communication (§3), recto-piezo multiple access (§3.3.1) and collision
// decoding (§3.3.2) — running end to end over the simulated substrates.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/hydrophone"
	"pab/internal/phy"
	"pab/internal/prof"
	"pab/internal/telemetry"
)

// The receive chain's fixed parameters, shared by the batch Receiver
// and the streaming decoder.
const (
	// FilterOrder of the Butterworth channel low-pass used after mixing.
	FilterOrder = 4
	// DetectThreshold is the normalised preamble correlation threshold.
	DetectThreshold = 0.55
	// CoarseThreshold is the generous first-pass threshold: the global
	// axis may be far from the modulation axis, and payload structure
	// can out-correlate the true preamble on the coarse projection, so
	// the coarse pass keeps several candidates for refinement.
	CoarseThreshold = DetectThreshold / 2
)

// Receiver misses with a constant message, built once: the streaming
// decoder's failed window attempts return them, and a miss then costs
// no allocation.
var (
	errNoCandidates = errors.New("core: no preamble candidates on either projection")
	errNoRefined    = errors.New("core: no candidate packet survived axis refinement")
	errNoLock       = errors.New("core: no usable candidate lock")
	errTruncHeader  = errors.New("core: truncated header")
	errPayloadLen   = errors.New("core: implausible payload length")
	errTruncFrame   = errors.New("core: truncated frame")
	errFrameLength  = errors.New("core: frame length disagrees with its header")
)

// frontEndBlock is how many samples the front end converts from
// pressure to volts at a time. The hydrophone's auto-gain needs the
// whole recording's peak, but its conversion does not, so the volts
// never exist as one recording-length buffer.
const frontEndBlock = 8192

// ChannelCutoff is the channel low-pass cutoff in Hz for a backscatter
// bitrate at sample rate fs: four times the FM0 occupied bandwidth
// keeps the bit transitions sharp enough for the half-bit correlators,
// floored at 200 Hz and capped at fs/4.
func ChannelCutoff(fs, bitrate float64) float64 {
	cutoff := 4 * phy.OccupiedBandwidth(bitrate)
	if cutoff < 200 {
		cutoff = 200
	}
	if cutoff > fs/4 {
		cutoff = fs / 4
	}
	return cutoff
}

// Receiver is the hydrophone-side offline decoder (paper §5.1b): FFT
// carrier identification, downconversion, Butterworth channel filtering,
// packet detection, CFO correction and ML FM0 decoding.
//
// The decoding methods work in a workspace the Receiver keeps from call
// to call, so a steady stream of decodes allocates little more than its
// results; nothing a method returns points into the workspace. Like
// phy.Detector, a Receiver must therefore not be used from several
// goroutines at once. A copy shares the workspace once the original
// has decoded, so copies must not be used concurrently either.
type Receiver struct {
	Hydro      hydrophone.Hydrophone
	SampleRate float64

	ws *workspace // created by the first decode
}

// work returns the receiver's workspace, creating it on first use.
func (r *Receiver) work() *workspace {
	if r.ws == nil {
		r.ws = &workspace{}
	}
	return r.ws
}

// NewReceiver returns the paper's receiver configuration.
func NewReceiver(fs float64) (*Receiver, error) {
	if fs <= 0 {
		return nil, fmt.Errorf("core: sample rate must be positive, got %g", fs)
	}
	hyd := hydrophone.H2a()
	hyd.AutoGain = true // the operator trims the input level to avoid clipping
	return &Receiver{Hydro: hyd, SampleRate: fs}, nil
}

// Demodulate mixes the recording down by the carrier and low-pass
// filters, returning the complex baseband whose magnitude is the
// amplitude trace of Fig 2. The cutoff tracks the backscatter bandwidth
// (ChannelCutoff).
func (r *Receiver) Demodulate(recording []float64, carrier, bitrate float64) ([]complex128, error) {
	return r.DemodulateBand(recording, carrier, ChannelCutoff(r.SampleRate, bitrate))
}

// DemodulateBand is Demodulate with an explicit low-pass cutoff — needed
// when concurrent carriers sit close together and the channel filter
// must reject the neighbour (§5.1b's per-channel Butterworth filters).
func (r *Receiver) DemodulateBand(recording []float64, carrier, cutoff float64) ([]complex128, error) {
	if cutoff > r.SampleRate/4 {
		cutoff = r.SampleRate / 4
	}
	return dsp.DownconvertLP(recording, carrier, r.SampleRate, cutoff, FilterOrder)
}

// CoherentWave projects a complex baseband stream onto its modulation
// axis: it removes the mean (the un-modulated direct carrier), estimates
// the modulation phasor direction from the second moment of the
// residual, and returns the real projection. This recovers the full
// backscatter swing even when the reflected path arrives in quadrature
// with the direct carrier — where plain envelope detection sees almost
// nothing (deep multipath fading, the location dependence of Fig 10).
func CoherentWave(bb []complex128) []float64 {
	return projectAxis(bb, estimateAxis(bb))
}

// modAxis is an estimated modulation axis: the carrier mean and the unit
// rotation that brings the modulation onto the real axis.
type modAxis struct {
	mean complex128
	rot  complex128
}

// estimateAxis fits the axis over a segment (ideally one known to
// contain modulation, such as a detected preamble).
func estimateAxis(seg []complex128) modAxis {
	if len(seg) == 0 {
		return modAxis{rot: 1}
	}
	var mean complex128
	for _, v := range seg {
		mean += v
	}
	mean /= complex(float64(len(seg)), 0)
	var acc complex128
	for _, v := range seg {
		d := v - mean
		acc += d * d
	}
	theta := cmplx.Phase(acc) / 2
	return modAxis{mean: mean, rot: cmplx.Exp(complex(0, -theta))}
}

// projectAxis applies an axis estimate to a whole stream.
func projectAxis(bb []complex128, a modAxis) []float64 {
	return projectAxisInto(nil, bb, a)
}

// projectAxisInto is projectAxis writing into dst's backing array when
// it is large enough.
func projectAxisInto(dst []float64, bb []complex128, a modAxis) []float64 {
	dst = dsp.Grow(dst, len(bb))
	for i, v := range bb {
		dst[i] = real((v - a.mean) * a.rot)
	}
	return dst
}

// coherentWaveTrackedInto projects bb onto a slowly *rotating*
// modulation axis, writing into dst's backing array when it is large
// enough: the axis is re-estimated per block and the per-block 180°
// ambiguity is resolved by phase continuity with the previous block.
// This is the mobile-receiver upgrade the paper's §8 anticipates — a
// drifting node Doppler-rotates the backscatter phasor through the
// packet, which a fixed-axis projection smears.
func coherentWaveTrackedInto(dst []float64, bb []complex128, blockLen int) []float64 {
	if len(bb) == 0 {
		return dst[:0]
	}
	if blockLen < 8 || blockLen > len(bb) {
		return projectAxisInto(dst, bb, estimateAxis(bb))
	}
	out := dsp.Grow(dst, len(bb))
	prevRot := complex(1, 0)
	havePrev := false
	for start := 0; start < len(bb); start += blockLen {
		end := start + blockLen
		if end > len(bb) {
			end = len(bb)
		}
		a := estimateAxis(bb[start:end])
		if havePrev {
			// The second-moment axis is defined modulo 180°; pick the
			// sign that stays continuous with the previous block.
			if real(a.rot*cmplx.Conj(prevRot)) < 0 {
				a.rot = -a.rot
			}
		}
		prevRot = a.rot
		havePrev = true
		for i := start; i < end; i++ {
			out[i] = real((bb[i] - a.mean) * a.rot)
		}
	}
	return out
}

// Decoded is the result of decoding one uplink packet.
type Decoded struct {
	// Frame is the CRC-verified data frame.
	Frame frame.DataFrame
	// Bits are the raw decoded payload-section bits (post-preamble).
	Bits []phy.Bit
	// SNRLinear is the paper's §6.1a estimate over the packet.
	SNRLinear float64
	// Sync describes where the packet was found.
	Sync phy.Sync
	// CFOHz is the estimated carrier frequency offset.
	CFOHz float64
	// PreambleBitErrors counts re-decoded preamble bits that disagree
	// with the known pattern at the accepted lock (0 on a clean lock).
	PreambleBitErrors int
}

// SNRdB returns the SNR in decibels.
func (d *Decoded) SNRdB() float64 {
	if d.SNRLinear <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(d.SNRLinear)
}

// DecodeUplink runs the full uplink receive chain on a pressure-domain
// recording: record through the hydrophone, demodulate at the carrier,
// detect the FM0 preamble, and decode a length-prefixed data frame at
// the given backscatter bitrate.
//
// searchFrom gates the decoder to the samples after the reader's own
// downlink query: the reader transmitted the query itself, so it knows
// when its PWM keying ended, and the huge downlink amplitude swings
// would otherwise dominate the modulation-axis estimate.
func (r *Receiver) DecodeUplink(pressure []float64, carrier, bitrate float64, searchFrom int) (*Decoded, error) {
	return r.DecodeUplinkTraced(nil, pressure, carrier, bitrate, searchFrom)
}

// DecodeUplinkTraced is DecodeUplink with an optional parent telemetry
// span: the demod → sync → decode stages become child spans, and every
// attempt — successful or not — files a telemetry.DecodeReport. It sets
// no pprof labels, so inside a pabd job the decode's CPU samples keep
// the job's; its DecodeUplink frames attribute them to the decode.
func (r *Receiver) DecodeUplinkTraced(parent *telemetry.Span, pressure []float64, carrier, bitrate float64, searchFrom int) (*Decoded, error) {
	dec, err := r.decodeUplinkStaged(parent, pressure, carrier, bitrate, searchFrom)
	rep := telemetry.DecodeReport{CarrierHz: carrier, BitrateBps: bitrate}
	if err != nil {
		telemetry.Inc(telemetry.MCoreUplinkDecodeFailuresTotal)
		rep.Error = err.Error()
		telemetry.RecordDecode(rep)
		return nil, err
	}
	telemetry.Inc(telemetry.MCoreUplinkDecodesTotal)
	telemetry.ObserveN(telemetry.MCoreUplinkSnrDb, snrDBBuckets, dec.SNRdB())
	rep.Decoded = true
	rep.SlicerSNRdB = dec.SNRdB()
	rep.SyncPeak = dec.Sync.Score
	rep.SyncIndex = dec.Sync.Index
	rep.CFOHz = dec.CFOHz
	rep.PreambleBitErrors = dec.PreambleBitErrors
	rep.PayloadBits = len(dec.Bits)
	telemetry.RecordDecode(rep)
	return dec, nil
}

// snrDBBuckets cover the paper's operating range (Fig 7: ~3–20 dB).
var snrDBBuckets = []float64{-10, -5, 0, 2, 5, 8, 11, 15, 20, 25, 30}

func (r *Receiver) decodeUplinkStaged(parent *telemetry.Span, pressure []float64, carrier, bitrate float64, searchFrom int) (*Decoded, error) {
	spDemod := parent.Child("demod")
	searchFrom = max(searchFrom, 0)
	bb, err := r.recordGated(pressure, carrier, bitrate, searchFrom)
	if err != nil {
		spDemod.End()
		return nil, err
	}
	return r.decodeGated(parent, spDemod, bb, bitrate, searchFrom)
}

// DecodeVolts runs the receive chain on a voltage-domain recording — the
// signal as it leaves the hydrophone front end, before any mixing. It is
// DecodeUplink minus the hydrophone stage: demodulate at the carrier,
// gate to searchFrom, correct CFO, and decode at the given bitrate.
// Streaming front ends that capture voltages directly (a sound card, a
// network ingest) enter the batch chain here.
func (r *Receiver) DecodeVolts(volts []float64, carrier, bitrate float64, searchFrom int) (*Decoded, error) {
	searchFrom = max(searchFrom, 0)
	bb, err := r.demodulateGated(len(volts), len(volts), func(off, k int) []float64 { return volts[off : off+k] }, carrier, bitrate, searchFrom)
	if err != nil {
		return nil, err
	}
	return r.decodeGated(nil, nil, bb, bitrate, searchFrom)
}

// decodeGated finishes the chain on the gated baseband, the workspace's
// buffer: it corrects the CFO in place, closes spDemod (when non-nil,
// the open demod span) and detects and decodes.
func (r *Receiver) decodeGated(parent, spDemod *telemetry.Span, bb []complex128, bitrate float64, searchFrom int) (*Decoded, error) {
	// Estimate and remove the projector/hydrophone oscillator offset
	// (footnote 12). Multipath-skewed spectra can bias the estimator, so
	// the correction is only kept when it measurably concentrates the
	// carrier.
	bb, cfo := r.correctCFOIfReal(bb)
	if spDemod != nil {
		spDemod.Attr("samples", len(bb)).Attr("cfo_hz", cfo).End()
	}
	return r.decodeBasebandStaged(parent, bb, bitrate, cfo, searchFrom)
}

// recordGated is demodulateGated on the volts the hydrophone records
// from pressure. The gain is computed once over the whole recording;
// the volts are then converted a block at a time into the workspace's
// block buffer as the demodulator asks for them, each block's
// conversion timed as the record stage.
func (r *Receiver) recordGated(pressure []float64, carrier, bitrate float64, searchFrom int) ([]complex128, error) {
	st := prof.Start(prof.StageRecord)
	gain, err := r.Hydro.Gain(pressure)
	st.Stop(0) // the samples count once, in the conversion blocks
	if err != nil {
		return nil, err
	}
	ws := r.work()
	ws.volts = dsp.Grow(ws.volts, min(len(pressure), frontEndBlock))
	return r.demodulateGated(len(pressure), len(ws.volts), func(off, k int) []float64 {
		st := prof.Start(prof.StageRecord)
		volts := ws.volts[:k]
		r.Hydro.Convert(volts, pressure[off:off+k], gain)
		st.Stop(k)
		return volts
	}, carrier, bitrate, searchFrom)
}

// demodulateGated returns Demodulate(volts, carrier, bitrate)[searchFrom:]
// bit for bit, for a decoder gated at searchFrom ≥ 0, on the n-sample
// voltage recording that next supplies in blocks of at most block
// samples (dsp.DownconvertGatedFrom): the zero-phase filter's backward
// pass stops at the gate, since nothing reads the baseband before it.
// The result is the workspace's baseband buffer.
func (r *Receiver) demodulateGated(n, block int, next func(off, k int) []float64, carrier, bitrate float64, searchFrom int) ([]complex128, error) {
	if searchFrom >= n {
		return nil, fmt.Errorf("core: search start %d beyond recording %d", searchFrom, n)
	}
	ws := r.work()
	lp, err := ws.filter(r.SampleRate, ChannelCutoff(r.SampleRate, bitrate))
	if err != nil {
		return nil, err
	}
	bb, err := dsp.DownconvertGatedFrom(ws.bb, n, block, next, ws.phasor(carrier, r.SampleRate), lp, searchFrom)
	if err != nil {
		return nil, err
	}
	ws.bb = bb
	return bb, nil
}

// DecodeBaseband runs the detection and decode half of the chain on
// complex baseband that was mixed and filtered elsewhere — the entry
// point for the block-based receiver in internal/stream, whose window is
// already at baseband. Indices in the result are relative to bb, which
// is left as it was: a kept CFO correction is written into the
// workspace's own baseband buffer.
func (r *Receiver) DecodeBaseband(bb []complex128, bitrate float64) (*Decoded, error) {
	bb2, cfo := r.correctCFOIfReal(bb)
	return r.decodeBasebandStaged(nil, bb2, bitrate, cfo, 0)
}

// decodeBasebandStaged detects and decodes on an already-demodulated,
// CFO-corrected baseband stream. indexOffset is added to the reported
// sync indices (the batch path gates the stream at searchFrom and
// reports indices in pre-gate coordinates).
func (r *Receiver) decodeBasebandStaged(parent *telemetry.Span, bb []complex128, bitrate, cfo float64, indexOffset int) (*Decoded, error) {
	ws := r.work()
	spb, err := phy.SamplesPerBitFor(r.SampleRate, bitrate)
	if err != nil {
		return nil, err
	}
	c, err := ws.codec(spb)
	if err != nil {
		return nil, err
	}
	spSync := parent.Child("sync")
	cands, err := ws.detectRefinedAll(bb, c)
	if err != nil {
		spSync.End()
		return nil, err
	}
	spSync.Attr("candidates", len(cands)).End()

	spDecode := parent.Child("decode")
	defer spDecode.End()
	stDecode := prof.Start(prof.StageDecode)
	defer stDecode.Stop(len(bb))
	// Try candidates in score order; the CRC arbitrates which lock is
	// the real packet (payload structure can out-correlate the preamble
	// under heavy ISI).
	var firstErr error
	for i := range cands {
		dec, err := ws.decodeAt(bb, &cands[i], c.fm0)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		dec.Sync.Index += indexOffset
		dec.Sync.PayloadIndex += indexOffset
		dec.CFOHz = cfo
		return dec, nil
	}
	// Last resort: a Doppler-rotating channel (moving node) smears every
	// fixed-axis projection; retry on block-tracked projections, finer
	// blocks tolerating faster rotation at the cost of noisier per-block
	// axis estimates. The coarse pass is over, so its buffer holds them.
	preLen := len(phy.PreambleBits) * spb
	for _, block := range [...]int{preLen, preLen / 2, preLen / 4} {
		ws.coarse = coherentWaveTrackedInto(ws.coarse, bb, block)
		cs, err := c.det.Candidates(ws.coarse, DetectThreshold, 1, 0)
		if err != nil {
			continue
		}
		lock := refinedLock{wave: ws.coarse, sync: cs[0]}
		dec, err := ws.decodeAt(bb, &lock, c.fm0)
		if err != nil {
			continue
		}
		dec.Sync.Index += indexOffset
		dec.Sync.PayloadIndex += indexOffset
		dec.CFOHz = cfo
		return dec, nil
	}
	return nil, firstErr
}

// decodeAt decodes a length-prefixed data frame at a detected lock,
// projecting only the spans it reads. The result is freshly allocated;
// a lock that does not decode allocates nothing.
func (ws *workspace) decodeAt(bb []complex128, lock *refinedLock, fm0 *phy.FM0) (*Decoded, error) {
	sync := lock.sync
	spb := fm0.SamplesPerBit
	// Decode the header first to learn the payload length, then the
	// whole frame.
	headerWave := lock.project(&ws.header, bb, sync.PayloadIndex, min(len(bb), sync.PayloadIndex+24*spb))
	ws.hdrBits, _ = fm0.DecodeInto(ws.hdrBits, &ws.trellis, headerWave, 24, sync.PayloadLevel)
	if len(ws.hdrBits) < 24 {
		return nil, errTruncHeader
	}
	header, err := phy.BitsToBytesInto(ws.frame, ws.hdrBits)
	if err != nil {
		return nil, err
	}
	ws.frame = header
	payloadLen := int(header[2])
	if payloadLen > frame.MaxPayload {
		return nil, errPayloadLen
	}
	total := frame.DataFrameBitLength(payloadLen)
	// Everything below reads only the packet (preamble + frame) and the
	// ±span alignment neighbourhood of the SNR search around it.
	packetLen := (len(phy.PreambleBits) + total) * spb
	endIdx := min(len(bb), sync.Index+packetLen)
	span := spb / 4
	winLo := max(0, sync.Index-span)
	winHi := min(len(bb), endIdx+span)
	env := lock.project(&ws.packet, bb, winLo, winHi)
	ws.bits, _ = fm0.DecodeInto(ws.bits, &ws.trellis, env[sync.PayloadIndex-winLo:], total, sync.PayloadLevel)
	bits := ws.bits
	if len(bits) < total {
		return nil, errTruncFrame
	}
	raw, err := phy.BitsToBytesInto(ws.frame, bits)
	if err != nil {
		return nil, err
	}
	ws.frame = raw
	if int(raw[2]) != payloadLen {
		return nil, errFrameLength
	}
	df, err := frame.UnmarshalDataFrame(raw)
	if err != nil {
		return nil, err // CRC failure — MAC layer requests retransmission
	}

	// SNR over preamble + frame, the §6.1a way. With the packet extent
	// now confirmed by the CRC, re-estimate the modulation axis over
	// exactly that extent (the best available channel estimate) and
	// search a small alignment neighbourhood — multipath can shift the
	// correlation peak a few samples off the energy-optimal point.
	ws.allBits = dsp.Grow(ws.allBits, len(phy.PreambleBits)+len(bits))
	copy(ws.allBits[copy(ws.allBits, phy.PreambleBits):], bits)
	step := spb / 16
	if step < 1 {
		step = 1
	}
	ws.refined = projectAxisInto(ws.refined, bb[winLo:winHi], estimateAxis(bb[sync.Index:endIdx]))
	snr := 0.0
	for _, wave := range [...][]float64{env, ws.refined} {
		for off := -span; off <= span; off += step {
			idx := sync.Index + off - winLo
			if idx < 0 || idx >= len(wave) {
				continue
			}
			s, means := phy.MeasureSNRInto(ws.means, wave[idx:], ws.allBits, fm0)
			ws.means = means
			if s > snr {
				snr = s
			}
		}
	}

	// Re-decode the preamble region against the known pattern — a
	// per-packet lock-quality diagnostic (bit errors inside the preamble
	// mean the correlator locked on a degraded or offset template).
	preErrs := 0
	ws.preBits, _ = fm0.DecodeInto(ws.preBits, &ws.trellis, env[sync.Index-winLo:], len(phy.PreambleBits), sync.StartLevel)
	for i, b := range ws.preBits {
		if b != phy.PreambleBits[i] {
			preErrs++
		}
	}

	return &Decoded{
		Frame:             df,
		Bits:              slices.Clone(bits),
		SNRLinear:         snr,
		Sync:              sync,
		PreambleBitErrors: preErrs,
	}, nil
}

// MeasureUplinkSNR decodes as much as possible and returns the SNR even
// when the CRC fails — Fig 7/8 need SNR for packets that do not decode
// cleanly. knownBits, when non-nil, are the transmitted bits (ground
// truth available in the controlled experiments).
func (r *Receiver) MeasureUplinkSNR(pressure []float64, carrier, bitrate float64, knownBits []phy.Bit, searchFrom int) (snrLinear float64, ber float64, err error) {
	ws := r.work()
	bb, err := r.recordGated(pressure, carrier, bitrate, max(searchFrom, 0))
	if err != nil {
		return 0, 1, err
	}
	bb, _ = r.correctCFOIfReal(bb)
	spb, err := phy.SamplesPerBitFor(r.SampleRate, bitrate)
	if err != nil {
		return 0, 1, err
	}
	c, err := ws.codec(spb)
	if err != nil {
		return 0, 1, err
	}
	cands, err := ws.detectRefinedAll(bb, c)
	if err != nil {
		return 0, 1, err
	}
	// Evaluate every candidate lock and keep the one with the highest
	// measured SNR — the same arbitration DecodeUplink gets from the
	// CRC, available here even when the packet is too corrupted to pass.
	best := -1.0
	bestBER := 1.0
	for i := range cands {
		lock := &cands[i]
		n := len(knownBits)
		if n == 0 {
			n = (len(bb) - lock.sync.Index) / spb
		}
		wave := lock.project(&ws.packet, bb, lock.sync.Index, min(len(bb), lock.sync.Index+n*spb))
		ws.bits, _ = c.fm0.DecodeInto(ws.bits, &ws.trellis, wave, n, lock.sync.StartLevel)
		snr, means := phy.MeasureSNRInto(ws.means, wave, ws.bits, c.fm0)
		ws.means = means
		if snr > best {
			best = snr
			if knownBits != nil {
				bestBER = phy.BER(knownBits, ws.bits)
			} else {
				bestBER = 0
			}
		}
	}
	if best < 0 {
		return 0, 1, errNoLock
	}
	return best, bestBER, nil
}

// refinedLock is one candidate preamble lock and the projection it was
// found on: the modulation axis refined over its preamble, or, for the
// block-tracked fallback, a projection of the whole stream.
type refinedLock struct {
	axis modAxis
	wave []float64 // when non-nil, used in place of axis
	sync phy.Sync
}

// project returns the lock's projection of bb[lo:hi], computed into
// *buf unless the lock carries a whole-stream wave. Projection is per
// sample, so a span equals the same span of a whole-stream projection.
func (l *refinedLock) project(buf *[]float64, bb []complex128, lo, hi int) []float64 {
	if l.wave != nil {
		return l.wave[lo:hi]
	}
	*buf = projectAxisInto(*buf, bb[lo:hi], l.axis)
	return *buf
}

// maxCoarse bounds the candidates the coarse pass keeps per projection.
const maxCoarse = 8

// detectRefinedAll runs two-pass coherent detection: a coarse pass with
// the axis estimated over the whole stream locates the preamble, then
// the axis is re-estimated over the detected preamble alone — where the
// modulation is guaranteed present — and detection and decoding proceed
// on the refined projection. This is the per-packet channel estimation
// of the paper's receiver (§5.1b). It returns every surviving candidate
// lock, best refined score first, in the workspace's lock buffer.
func (ws *workspace) detectRefinedAll(bb []complex128, c *codec) ([]refinedLock, error) {
	// The global second-moment axis can sit arbitrarily far from the
	// true modulation axis when the stream is mostly unmodulated
	// carrier, leaving the real preamble buried on the coarse
	// projection. Search two orthogonal coarse projections — the signal
	// appears at ≥ 1/√2 of its amplitude on at least one of them.
	axis := estimateAxis(bb)
	axisQ := axis
	axisQ.rot *= complex(0, 1)
	preambleLen := len(phy.PreambleBits) * c.fm0.SamplesPerBit
	cands := dsp.Grow(ws.cands, 2*maxCoarse)
	ws.cands = cands
	n := 0
	for _, a := range [...]modAxis{axis, axisQ} {
		ws.coarse = projectAxisInto(ws.coarse, bb, a)
		cs, err := c.det.Candidates(ws.coarse, CoarseThreshold, maxCoarse, preambleLen)
		if err != nil {
			continue
		}
		n += copy(cands[n:], cs)
	}
	cands = cands[:n]
	if len(cands) == 0 {
		return nil, errNoCandidates
	}
	out := dsp.Grow(ws.locks, len(cands))
	ws.locks = out
	k := 0
	for _, cand := range cands {
		end := cand.Index + preambleLen
		if end > len(bb) {
			end = len(bb)
		}
		axis := estimateAxis(bb[cand.Index:end])
		// Re-detect only in a small window around this candidate: a
		// global re-detect would let every candidate's refined wave
		// converge onto the single strongest peak, collapsing the
		// candidate set before the CRC can arbitrate. Only that window
		// is projected; the decoder projects the spans it reads.
		lo := cand.Index - c.fm0.SamplesPerBit
		if lo < 0 {
			lo = 0
		}
		hi := cand.Index + c.fm0.SamplesPerBit + preambleLen
		if hi > len(bb) {
			hi = len(bb)
		}
		ws.refine = projectAxisInto(ws.refine, bb[lo:hi], axis)
		cs, err := c.det.Candidates(ws.refine, DetectThreshold, 1, 0)
		if err != nil {
			continue
		}
		sync := cs[0]
		sync.Index += lo
		sync.PayloadIndex += lo
		out[k] = refinedLock{axis: axis, sync: sync}
		k++
	}
	out = out[:k]
	if len(out) == 0 {
		return nil, errNoRefined
	}
	slices.SortFunc(out, func(a, b refinedLock) int { return cmp.Compare(b.sync.Score, a.sync.Score) })
	// Deduplicate locks that converged to the same index, in place.
	k = 1
	for _, l := range out[1:] {
		seen := false
		for _, d := range out[:k] {
			if abs(l.sync.Index-d.sync.Index) < preambleLen/2 {
				seen = true
				break
			}
		}
		if !seen {
			out[k] = l
			k++
		}
	}
	return out[:k], nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// CoherentWaveAround projects bb using the axis estimated over
// [start, end) — a debugging/analysis helper.
func CoherentWaveAround(bb []complex128, start, end int) []float64 {
	if start < 0 {
		start = 0
	}
	if end > len(bb) {
		end = len(bb)
	}
	return projectAxis(bb, estimateAxis(bb[start:end]))
}

// correctCFOIfReal estimates the carrier frequency offset and applies
// the correction only when it concentrates the carrier (|Σbb|/Σ|bb|
// rises) — a spurious estimate from a multipath-skewed spectrum would
// otherwise smear a perfectly coherent stream. The corrected stream's
// concentration is measured before anything is written, and a kept
// correction goes into the workspace's baseband buffer: over bb itself
// on the batch path, where bb is that buffer, and into a copy for
// DecodeBaseband, whose caller's stream stays as it was (the stream
// decoder decodes its window again).
func (r *Receiver) correctCFOIfReal(bb []complex128) ([]complex128, float64) {
	cfo := phy.EstimateCFO(bb, r.SampleRate)
	if math.Abs(cfo) <= 0.5 {
		return bb, cfo
	}
	if correctedConcentration(bb, cfo, r.SampleRate) > carrierConcentration(bb) {
		ws := r.work()
		ws.bb = phy.CorrectCFOInto(ws.bb, bb, cfo, r.SampleRate)
		return ws.bb, cfo
	}
	return bb, 0
}

// carrierConcentration measures how coherent the dominant carrier is:
// 1.0 for a pure phasor, → 0 as rotation spreads it.
func carrierConcentration(bb []complex128) float64 {
	if len(bb) == 0 {
		return 0
	}
	var sum complex128
	var mag float64
	for _, v := range bb {
		sum += v
		mag += cmplx.Abs(v)
	}
	if mag == 0 {
		return 0
	}
	return cmplx.Abs(sum) / mag
}

// correctedConcentration is carrierConcentration(phy.CorrectCFOInto(nil,
// bb, cfo, fs)) without the corrected copy: the same rotations, summed
// in the same order.
func correctedConcentration(bb []complex128, cfo, fs float64) float64 {
	if fs <= 0 || len(bb) == 0 {
		return carrierConcentration(bb) // CorrectCFOInto copies bb
	}
	rot := phy.NewDerotator(cfo, fs)
	var sum complex128
	var mag float64
	for i, v := range bb {
		c := v * rot.At(i)
		sum += c
		mag += cmplx.Abs(c)
	}
	if mag == 0 {
		return 0
	}
	return cmplx.Abs(sum) / mag
}
