// Package stream is the block-based streaming face of the uplink
// receive chain (paper §5.1b): the same carrier-tracking →
// downconversion → channel filtering → FM0 sync → ML decode pipeline
// as core.Receiver, restructured so every stage carries its state
// across chunk boundaries and a recording can be decoded as it
// arrives, in bounded memory, instead of whole:
//
//	volts ──▶ Downmixer ──▶ IIRStream ×2 ──▶ window ──▶ DecodeBaseband
//	(chunks)  (carried       (carried I/Q      (bounded:   (full batch
//	           phase)         filter state)     ≤ windowPackets
//	                                            packets)    detector)
//
// A SyncScanner pair watches the in-phase and quadrature projections
// of the window as it grows and flags preamble correlation peaks; a
// flagged candidate triggers a decode attempt as soon as a whole
// packet could have arrived, so decode latency is one packet length,
// not one recording. The scanner is a latency device only: before any
// sample leaves the window the decoder always runs a full-window
// batch attempt, so a frame the scanner missed is still recovered as
// long as it fits the window of windowPackets maximum-length packets.
//
// A Decoder is not safe for concurrent use; the ingestion hub in
// stream/streamd serialises access per stream.
package stream

import (
	"errors"
	"fmt"

	"pab/internal/core"
	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/prof"
	"pab/internal/telemetry"
)

// Config parameterises a streaming decoder.
type Config struct {
	// SampleRate of the incoming voltage stream (Hz).
	SampleRate float64
	// CarrierHz is the downlink carrier. 0 means detect it from the
	// leading unmodulated carrier by FFT peak search, as the batch
	// receiver's FindCarriers does.
	CarrierHz float64
	// BitrateBps is the backscatter bitrate.
	BitrateBps float64
	// BlockSize is the internal processing granularity in samples
	// (default 1024). Larger chunks written to the decoder are split;
	// smaller ones are processed as-is.
	BlockSize int
	// MaxPayloadBytes bounds the payload length the decoder must be
	// able to hold whole (default frame.MaxPayload). Smaller values
	// shrink the window and per-stream memory.
	MaxPayloadBytes int
	// CarrierDetectSamples is how much lead-in the carrier detector
	// accumulates before the first FFT peak search (default 8192).
	CarrierDetectSamples int
}

func (c *Config) applyDefaults() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("stream: sample rate must be positive, got %g", c.SampleRate)
	}
	if c.BitrateBps <= 0 {
		return fmt.Errorf("stream: bitrate must be positive, got %g", c.BitrateBps)
	}
	if c.CarrierHz < 0 || c.CarrierHz >= c.SampleRate/2 {
		return fmt.Errorf("stream: carrier %g Hz outside [0, fs/2)", c.CarrierHz)
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 1024
	}
	if c.MaxPayloadBytes <= 0 || c.MaxPayloadBytes > frame.MaxPayload {
		c.MaxPayloadBytes = frame.MaxPayload
	}
	if c.CarrierDetectSamples <= 0 {
		c.CarrierDetectSamples = 8192
	}
	return nil
}

// Frame is one decoded uplink packet with its position in the stream.
type Frame struct {
	// Decoded is the batch decoder's result. Its Sync indices are in
	// decode-window coordinates; Start and End below are the stream
	// positions.
	core.Decoded
	// Start is the global sample index (counted from the first sample
	// ever written) of the first preamble sample.
	Start int64
	// End is one past the last frame sample.
	End int64
}

// Stats is a snapshot of a decoder's counters.
type Stats struct {
	// CarrierHz is the locked carrier (0 until detected).
	CarrierHz float64
	// Samples and Blocks count ingested input.
	Samples int64
	Blocks  int64
	// Frames counts CRC-clean decodes; Attempts and Misses count
	// full-window decode attempts and their failures.
	Frames   int64
	Attempts int64
	Misses   int64
	// Resyncs counts window slides (samples aged out undecoded),
	// Flushes explicit flushes, ScanHits preamble correlation peaks.
	Resyncs  int64
	Flushes  int64
	ScanHits int64
	// WindowLen is the current decode-window length in samples.
	WindowLen int
}

var errClosed = errors.New("stream: decoder is closed")

// maxCands bounds the candidate queue; the pre-slide full-window
// attempt still covers any hit dropped past the bound.
const maxCands = 32

// windowPackets sizes the decode window in units of the maximum packet
// length: a packet plus the room for it to straddle the previous one.
const windowPackets = 2

// Decoder decodes an uplink voltage stream chunk by chunk.
type Decoder struct {
	cfg Config

	spb       int
	preLen    int
	maxPacket int
	windowCap int
	keepTail  int

	// Carrier acquisition.
	locked  bool
	pending []float64 // raw volts buffered until the carrier locks
	inAbs   int64     // total samples ever written

	// Demodulation state (valid once locked).
	mixer  *dsp.Downmixer
	fi, fq [2]*dsp.IIRStream

	// Decode window and sync state.
	win      []complex128
	winStart int64 // global index of win[0]
	scanBase int64 // global index of the scanners' sample 0
	axis     core.AxisTracker
	scanI    *phy.SyncScanner
	scanQ    *phy.SyncScanner
	cands    []int64 // global indices of scanner hits, ascending-ish

	// iq is the per-block scratch: the in-phase rail in its first
	// BlockSize samples, the quadrature rail in the rest. in is the
	// caller's conversion buffer (InputBuffer).
	iq []float64
	in []float64

	stats  Stats
	closed bool
}

// NewDecoder builds a streaming decoder. The returned decoder owns
// buffers and scanners from the package free lists; Close returns them.
func NewDecoder(cfg Config) (*Decoder, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	spb, err := phy.SamplesPerBitFor(cfg.SampleRate, cfg.BitrateBps)
	if err != nil {
		return nil, err
	}
	d := &Decoder{
		cfg:    cfg,
		spb:    spb,
		preLen: len(phy.PreambleBits) * spb,
	}
	d.maxPacket = (len(phy.PreambleBits) + frame.DataFrameBitLength(cfg.MaxPayloadBytes)) * spb
	d.windowCap = windowPackets * d.maxPacket
	d.keepTail = d.maxPacket
	// The scanners run at the batch receiver's coarse-pass threshold.
	if d.scanI, err = getScanner(spb, core.CoarseThreshold); err != nil {
		return nil, err
	}
	if d.scanQ, err = getScanner(spb, core.CoarseThreshold); err != nil {
		d.Close()
		return nil, err
	}
	d.win = getBuf(windows, d.windowCap+cfg.BlockSize)[:0]
	d.iq = getBuf(scratch, 2*cfg.BlockSize)
	d.cands = make([]int64, 0, maxCands)
	if cfg.CarrierHz > 0 {
		if err := d.lock(cfg.CarrierHz); err != nil {
			d.Close()
			return nil, err
		}
	} else {
		d.pending = getBuf(scratch, 4*cfg.CarrierDetectSamples+cfg.BlockSize)[:0]
	}
	return d, nil
}

// lock builds the demodulation chain for a detected or configured
// carrier. The channel cutoff tracks the backscatter bandwidth exactly
// as Receiver.Demodulate does; the zero-phase FiltFilt of the batch
// path becomes two cascaded causal passes — the same squared magnitude
// response, with group delay instead of the backward pass (the
// backward pass reads the future and cannot stream).
func (d *Decoder) lock(carrier float64) error {
	cutoff := core.ChannelCutoff(d.cfg.SampleRate, d.cfg.BitrateBps)
	lp, err := dsp.DesignButterworthLowpass(cutoff, d.cfg.SampleRate, core.FilterOrder)
	if err != nil {
		return err
	}
	d.mixer = dsp.NewDownmixer(carrier, d.cfg.SampleRate)
	d.fi = [2]*dsp.IIRStream{lp.Stream(), lp.Stream()}
	d.fq = [2]*dsp.IIRStream{lp.Stream(), lp.Stream()}
	d.locked = true
	d.stats.CarrierHz = carrier
	return nil
}

// InputBuffer returns a buffer of n samples that the decoder owns, for
// a caller that converts its input into samples before Write: fill it
// and pass it to Write. It is valid until the next InputBuffer call or
// Close.
func (d *Decoder) InputBuffer(n int) []float64 {
	if cap(d.in) < n {
		putBuf(scratch, d.in)
		d.in = getBuf(scratch, n)
	}
	return d.in[:n]
}

// Write feeds the next chunk of the voltage stream, of any length, and
// returns the frames whose decode completed within it: usually none,
// and then a nil slice. The slice is never retained. Indices in the
// returned frames are global stream positions.
func (d *Decoder) Write(samples []float64) ([]Frame, error) {
	if d.closed {
		return nil, errClosed
	}
	var out []Frame
	for off := 0; off < len(samples); off += d.cfg.BlockSize {
		end := off + d.cfg.BlockSize
		if end > len(samples) {
			end = len(samples)
		}
		out = d.pump(samples[off:end], out)
	}
	return out, nil
}

// Flush decodes whatever the window still holds — the drain path for
// stream end: a packet whose tail just arrived but whose candidate was
// never flagged is recovered here.
func (d *Decoder) Flush() ([]Frame, error) {
	if d.closed {
		return nil, errClosed
	}
	d.stats.Flushes++
	telemetry.Inc(telemetry.MStreamFlushesTotal)
	var out []Frame
	if !d.locked {
		if len(d.pending) == 0 || !d.tryLock() {
			return out, nil
		}
		out = d.replay(out)
	}
	return d.drainWindow(out), nil
}

// Close returns the decoder's buffers and scanners to the package free
// lists, so a closed decoder that is still referenced holds none of
// them. The decoder must not be used afterwards.
func (d *Decoder) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	putBuf(windows, d.win)
	putBuf(scratch, d.iq)
	putBuf(scratch, d.in)
	putBuf(scratch, d.pending)
	d.win, d.iq, d.in, d.pending = nil, nil, nil, nil
	for _, s := range [...]*phy.SyncScanner{d.scanI, d.scanQ} {
		if s != nil {
			scanners.put(s)
		}
	}
	d.scanI, d.scanQ = nil, nil
	return nil
}

// Stats returns a snapshot of the decoder's counters.
func (d *Decoder) Stats() Stats {
	s := d.stats
	s.WindowLen = len(d.win)
	return s
}

// pump processes one internal block: acquire the carrier if still
// unlocked, otherwise ingest and run any due decode attempts.
func (d *Decoder) pump(piece []float64, out []Frame) []Frame {
	d.inAbs += int64(len(piece))
	if !d.locked {
		return d.absorb(piece, out)
	}
	return d.ingestAndDrain(piece, out)
}

// absorb buffers pre-lock samples and attempts carrier acquisition
// once enough lead-in has accumulated.
func (d *Decoder) absorb(piece []float64, out []Frame) []Frame {
	d.pending = append(d.pending, piece...)
	if len(d.pending) < d.cfg.CarrierDetectSamples {
		return out
	}
	if !d.tryLock() {
		// No dominant carrier yet: bound the buffer, keeping the most
		// recent samples (nothing before a lock is decodable anyway).
		if limit := 4 * d.cfg.CarrierDetectSamples; len(d.pending) > limit {
			drop := len(d.pending) - 2*d.cfg.CarrierDetectSamples
			copy(d.pending, d.pending[drop:])
			d.pending = d.pending[:len(d.pending)-drop]
		}
		return out
	}
	return d.replay(out)
}

// tryLock runs the FFT carrier search over the buffered lead-in, as
// Receiver.FindCarriers does over a whole recording.
func (d *Decoder) tryLock() bool {
	peaks := dsp.FindPeaks(d.pending, d.cfg.SampleRate, 1, 1000, 0)
	if len(peaks) == 0 {
		return false
	}
	fc := peaks[0].Frequency
	if fc <= 0 || fc >= d.cfg.SampleRate/2 {
		return false
	}
	return d.lock(fc) == nil
}

// replay pushes the buffered lead-in through the freshly locked
// pipeline, anchoring the window at the buffer's stream position.
func (d *Decoder) replay(out []Frame) []Frame {
	start := d.inAbs - int64(len(d.pending))
	d.winStart = start
	d.scanBase = start
	for off := 0; off < len(d.pending); off += d.cfg.BlockSize {
		end := off + d.cfg.BlockSize
		if end > len(d.pending) {
			end = len(d.pending)
		}
		out = d.ingestAndDrain(d.pending[off:end], out)
	}
	d.pending = d.pending[:0]
	return out
}

// ingestAndDrain runs the sample pipeline on one block, then any
// decode attempt the block made due: a window overflow always forces a
// full attempt before samples age out, a ready candidate triggers one
// early.
func (d *Decoder) ingestAndDrain(piece []float64, out []Frame) []Frame {
	d.ingest(piece)
	if len(d.win) > d.windowCap {
		out = d.drainWindow(out)
		d.slide()
	} else if d.readyCand() {
		out = d.drainWindow(out)
	}
	return out
}

// ingest mixes, filters and windows one block, and feeds the scanners.
func (d *Decoder) ingest(piece []float64) {
	d.stats.Blocks++
	d.stats.Samples += int64(len(piece))
	telemetry.Inc(telemetry.MStreamBlocksTotal)
	telemetry.Add(telemetry.MStreamSamplesTotal, int64(len(piece)))

	// The block is mixed straight into the window's free tail (the
	// window keeps BlockSize samples of room past windowCap), split
	// into rails, filtered, and written back in place.
	n := len(d.win)
	d.win = d.win[:n+len(piece)]
	grown := d.win[n:]

	stMix := prof.Start(prof.StageDownconvert)
	d.mixer.MixInto(grown, piece)
	stMix.Stop(len(piece))

	stFilt := prof.Start(prof.StageFilter)
	re := d.iq[:len(piece)]
	im := d.iq[d.cfg.BlockSize : d.cfg.BlockSize+len(piece)]
	for i, v := range grown {
		re[i] = real(v)
		im[i] = imag(v)
	}
	re = d.fi[0].Process(re, re)
	re = d.fi[1].Process(re, re)
	im = d.fq[0].Process(im, im)
	im = d.fq[1].Process(im, im)
	for i := range grown {
		grown[i] = complex(re[i], im[i])
	}
	stFilt.Stop(len(piece))

	d.axis.Add(grown)

	// The rails are spent; the projections reuse the in-phase one.
	stSync := prof.Start(prof.StageSync)
	d.noteHits(d.scanI.Scan(d.axis.ProjectInto(re, grown, false)))
	d.noteHits(d.scanQ.Scan(d.axis.ProjectInto(re, grown, true)))
	stSync.Stop(len(piece))
}

// noteHits records scanner hits as decode candidates.
func (d *Decoder) noteHits(hits []phy.ScanHit) {
	if len(hits) == 0 {
		return
	}
	d.stats.ScanHits += int64(len(hits))
	telemetry.Add(telemetry.MStreamScanHitsTotal, int64(len(hits)))
	for _, h := range hits {
		d.noteCand(d.scanBase + h.Index)
	}
}

// noteCand enqueues one candidate, collapsing near-duplicates (the two
// projections flag the same preamble within a bit of each other).
func (d *Decoder) noteCand(abs int64) {
	for _, c := range d.cands {
		if absDiff64(abs, c) < int64(d.spb) {
			return
		}
	}
	if len(d.cands) == cap(d.cands) {
		return
	}
	d.cands = append(d.cands, abs)
}

// readyCand reports whether some candidate's packet could now be fully
// inside the window.
func (d *Decoder) readyCand() bool {
	winEnd := d.winStart + int64(len(d.win))
	for _, c := range d.cands {
		if c+int64(d.maxPacket) <= winEnd {
			return true
		}
	}
	return false
}

// drainWindow repeatedly decodes the full window until an attempt
// fails, consuming each decoded packet so a following packet in the
// same window is found too. Candidates whose full extent the failed
// attempt covered are dropped — they were evaluated and lost.
func (d *Decoder) drainWindow(out []Frame) []Frame {
	for {
		dec, ok := d.tryDecode()
		if !ok {
			break
		}
		out = append(out, d.emit(dec))
	}
	d.dropCoveredCands()
	telemetry.Set(telemetry.MStreamWindowSamples, float64(len(d.win)))
	return out
}

// tryDecode runs one full-window batch attempt on a borrowed receiver.
func (d *Decoder) tryDecode() (*core.Decoded, bool) {
	if len(d.win) < d.preLen {
		return nil, false
	}
	d.stats.Attempts++
	telemetry.Inc(telemetry.MStreamDecodeAttemptsTotal)
	recv := getReceiver()
	recv.SampleRate = d.cfg.SampleRate
	dec, err := recv.DecodeBaseband(d.win, d.cfg.BitrateBps)
	receivers.put(recv)
	if err != nil {
		d.stats.Misses++
		telemetry.Inc(telemetry.MStreamDecodeMissesTotal)
		return nil, false
	}
	return dec, true
}

// emit converts a window-relative decode into a stream-positioned
// Frame, files its report, and consumes the packet's samples.
func (d *Decoder) emit(dec *core.Decoded) Frame {
	endLocal := dec.Sync.Index + (len(phy.PreambleBits)+len(dec.Bits))*d.spb
	if endLocal > len(d.win) {
		endLocal = len(d.win)
	}
	if endLocal < 1 {
		endLocal = 1 // defensive: always make progress
	}
	f := Frame{
		Decoded: *dec,
		Start:   d.winStart + int64(dec.Sync.Index),
		End:     d.winStart + int64(endLocal),
	}
	d.stats.Frames++
	telemetry.Inc(telemetry.MStreamFramesTotal)
	telemetry.RecordDecode(telemetry.DecodeReport{
		CarrierHz:         d.stats.CarrierHz,
		BitrateBps:        d.cfg.BitrateBps,
		Decoded:           true,
		SlicerSNRdB:       dec.SNRdB(),
		SyncPeak:          dec.Sync.Score,
		SyncIndex:         int(f.Start),
		CFOHz:             dec.CFOHz,
		PreambleBitErrors: dec.PreambleBitErrors,
		PayloadBits:       len(dec.Bits),
	})
	d.consume(endLocal)
	return f
}

// consume drops the first n window samples.
func (d *Decoder) consume(n int) {
	if n <= 0 {
		return
	}
	if n > len(d.win) {
		n = len(d.win)
	}
	d.winStart += int64(n)
	copy(d.win, d.win[n:])
	d.win = d.win[:len(d.win)-n]
}

// dropCoveredCands removes candidates already behind the window or
// whose packet extent the window fully covered (the attempt that just
// ran was their evaluation).
func (d *Decoder) dropCoveredCands() {
	winEnd := d.winStart + int64(len(d.win))
	keep := d.cands[:0]
	for _, c := range d.cands {
		if c >= d.winStart && c+int64(d.maxPacket) > winEnd {
			keep = append(keep, c)
		}
	}
	d.cands = keep
}

// slide ages the oldest samples out of an over-full window, keeping
// one max-packet tail so a packet whose start just arrived survives.
// Callers run drainWindow first: nothing decodable leaves undecoded.
func (d *Decoder) slide() {
	if len(d.win) <= d.keepTail {
		return
	}
	drop := len(d.win) - d.keepTail
	d.winStart += int64(drop)
	copy(d.win, d.win[drop:])
	d.win = d.win[:d.keepTail]
	d.stats.Resyncs++
	telemetry.Inc(telemetry.MStreamResyncsTotal)
}

func absDiff64(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}
