package stream

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"pab/internal/core"
	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/sensors"
)

// ---------------------------------------------------------------------
// Golden equivalence: the streaming decoder against the batch receiver
// on a real simulated reader↔node exchange, at several block sizes.
// ---------------------------------------------------------------------

type goldenCorpus struct {
	volts   []float64
	carrier float64
	bitrate float64
	gate    int
	fs      float64
	spb     int
	batch   *core.Decoded
	err     error
}

var (
	goldenOnce sync.Once
	golden     goldenCorpus
)

// loadGolden synthesises one powered exchange (the pabprof workload)
// and decodes it through the batch voltage-domain chain once.
func loadGolden(t *testing.T) *goldenCorpus {
	t.Helper()
	goldenOnce.Do(func() {
		cfg := core.DefaultLinkConfig()
		n, err := core.NewPaperNode(0x01, 500, sensors.RoomTank())
		if err != nil {
			golden.err = err
			return
		}
		proj, err := core.NewPaperProjector(cfg.SampleRate)
		if err != nil {
			golden.err = err
			return
		}
		link, err := core.NewLink(cfg, n, proj)
		if err != nil {
			golden.err = err
			return
		}
		if err := link.EnsurePowered(120); err != nil {
			golden.err = err
			return
		}
		res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
		if err != nil {
			golden.err = err
			return
		}
		recv := link.Receiver()
		volts, err := recv.Hydro.Record(res.Recording)
		if err != nil {
			golden.err = err
			return
		}
		golden.volts = volts
		golden.carrier = cfg.CarrierHz
		golden.bitrate = link.Node().Bitrate()
		golden.gate = res.DecodeGate
		golden.fs = cfg.SampleRate
		golden.spb, _ = phy.SamplesPerBitFor(cfg.SampleRate, golden.bitrate)
		golden.batch, golden.err = recv.DecodeVolts(volts, golden.carrier, golden.bitrate, golden.gate)
	})
	if golden.err != nil {
		t.Fatalf("golden corpus: %v", golden.err)
	}
	return &golden
}

// TestStreamingMatchesBatchAcrossBlockSizes decodes the golden exchange
// at each block size, twice: the second pass runs on the windows,
// scanners and receivers the first returned to the free lists, and its
// frames must be the first pass's exactly.
func TestStreamingMatchesBatchAcrossBlockSizes(t *testing.T) {
	g := loadGolden(t)
	blocks := []int{256, 1024, 4096, len(g.volts) - g.gate}
	type run struct {
		f  Frame
		st Stats
	}
	first := make([]run, len(blocks))
	for pass := 1; pass <= 2; pass++ {
		for i, block := range blocks {
			f, st := streamGolden(t, g, block)
			if pass == 1 {
				first[i] = run{f, st}
			} else if got := (run{f, st}); !reflect.DeepEqual(got, first[i]) {
				t.Fatalf("block %d: recycled-state decode %+v, first pass %+v", block, got, first[i])
			}
		}
	}
}

// streamGolden streams the golden exchange at one block size, checks
// its one frame against the batch decode, and returns it with the
// decoder's counters.
func streamGolden(t *testing.T, g *goldenCorpus, block int) (Frame, Stats) {
	t.Helper()
	tail := g.volts[g.gate:]
	d, err := NewDecoder(Config{
		SampleRate: g.fs,
		CarrierHz:  g.carrier,
		BitrateBps: g.bitrate,
		BlockSize:  block,
	})
	if err != nil {
		t.Fatalf("block %d: %v", block, err)
	}
	frames, err := d.Write(tail)
	if err != nil {
		t.Fatalf("block %d: write: %v", block, err)
	}
	flushed, err := d.Flush()
	if err != nil {
		t.Fatalf("block %d: flush: %v", block, err)
	}
	frames = append(frames, flushed...)
	if len(frames) != 1 {
		t.Fatalf("block %d: decoded %d frames, batch path decoded 1", block, len(frames))
	}
	f := frames[0]
	// Frames must be bit-identical to the batch decode.
	if len(f.Bits) != len(g.batch.Bits) {
		t.Fatalf("block %d: %d frame bits, batch decoded %d", block, len(f.Bits), len(g.batch.Bits))
	}
	for i := range f.Bits {
		if f.Bits[i] != g.batch.Bits[i] {
			t.Fatalf("block %d: bit %d differs from batch decode", block, i)
		}
	}
	if f.Frame.Source != g.batch.Frame.Source || f.Frame.Seq != g.batch.Frame.Seq {
		t.Fatalf("block %d: frame header %+v, batch %+v", block, f.Frame, g.batch.Frame)
	}
	// SNR within tolerance: the causal double-pass filter shapes the
	// noise slightly differently from the zero-phase batch filter.
	dSNR := math.Abs(f.SNRdB() - g.batch.SNRdB())
	if dSNR > 6 {
		t.Fatalf("block %d: SNR %.1f dB, batch %.1f dB (Δ %.1f > 6)", block, f.SNRdB(), g.batch.SNRdB(), dSNR)
	}
	// Lock position within tolerance of the batch lock (the causal
	// filter adds group delay the zero-phase batch filter does not).
	streamIdx := int(f.Start) + g.gate
	if d := abs(streamIdx - g.batch.Sync.Index); d > 2*g.spb {
		t.Fatalf("block %d: lock at %d, batch at %d (Δ %d > %d)", block, streamIdx, g.batch.Sync.Index, d, 2*g.spb)
	}
	st := d.Stats()
	if err := d.Close(); err != nil {
		t.Fatalf("block %d: close: %v", block, err)
	}
	if st.Frames != 1 || st.Samples != int64(len(tail)) {
		t.Fatalf("block %d: stats %+v", block, st)
	}
	return f, st
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ---------------------------------------------------------------------
// Synthetic-workload unit tests.
// ---------------------------------------------------------------------

// synthCfg is a small, fast configuration: 12 kHz sampling, 3 kHz
// carrier, 375 bit/s → 32 samples per bit.
func synthCfg() SynthConfig {
	return SynthConfig{
		SampleRate:  12000,
		CarrierHz:   3000,
		BitrateBps:  375,
		LeadSamples: 4000,
		TailSamples: 2000,
	}
}

func synthPacket(t *testing.T, payload []byte) []float64 {
	t.Helper()
	rec, err := SynthesizeRecording(synthCfg(), frame.DataFrame{Source: 0x21, Seq: 3, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func decoderCfg(block int) Config {
	sc := synthCfg()
	return Config{
		SampleRate:      sc.SampleRate,
		CarrierHz:       sc.CarrierHz,
		BitrateBps:      sc.BitrateBps,
		BlockSize:       block,
		MaxPayloadBytes: 8,
	}
}

func feedAll(t *testing.T, d *Decoder, rec []float64, chunk int) []Frame {
	t.Helper()
	var out []Frame
	for off := 0; off < len(rec); off += chunk {
		end := off + chunk
		if end > len(rec) {
			end = len(rec)
		}
		fs, err := d.Write(rec[off:end])
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		out = append(out, fs...)
	}
	fs, err := d.Flush()
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	return append(out, fs...)
}

func TestDecoderSynthSinglePacket(t *testing.T) {
	payload := []byte("hello")
	rec := synthPacket(t, payload)
	for _, chunk := range []int{100, 512, 1024, len(rec)} {
		d, err := NewDecoder(decoderCfg(512))
		if err != nil {
			t.Fatal(err)
		}
		frames := feedAll(t, d, rec, chunk)
		if len(frames) != 1 {
			t.Fatalf("chunk %d: %d frames, want 1 (stats %+v)", chunk, len(frames), d.Stats())
		}
		f := frames[0]
		if string(f.Frame.Payload) != string(payload) {
			t.Fatalf("chunk %d: payload %q, want %q", chunk, f.Frame.Payload, payload)
		}
		sc := synthCfg()
		if d := absDiff64(f.Start, int64(sc.LeadSamples)); d > int64(2*32) {
			t.Fatalf("chunk %d: frame start %d, packet injected at %d", chunk, f.Start, sc.LeadSamples)
		}
		d.Close()
	}
}

func TestDecoderCarrierAutoDetect(t *testing.T) {
	payload := []byte{0xAA, 0x55}
	rec := synthPacket(t, payload)
	cfg := decoderCfg(512)
	cfg.CarrierHz = 0
	cfg.CarrierDetectSamples = 2048
	d, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	frames := feedAll(t, d, rec, 700)
	if len(frames) != 1 {
		t.Fatalf("%d frames, want 1 (stats %+v)", len(frames), d.Stats())
	}
	if string(frames[0].Frame.Payload) != string(payload) {
		t.Fatalf("payload %q, want %q", frames[0].Frame.Payload, payload)
	}
	got := d.Stats().CarrierHz
	if math.Abs(got-synthCfg().CarrierHz) > 30 {
		t.Fatalf("detected carrier %g Hz, injected 3000", got)
	}
}

func TestDecoderWindowStaysBounded(t *testing.T) {
	cfg := decoderCfg(512)
	d, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Feed a long unmodulated carrier: nothing ever decodes, so the
	// window must slide rather than grow.
	sc := synthCfg()
	carrier := make([]float64, 60000)
	w := twoPi * sc.CarrierHz / sc.SampleRate
	for i := range carrier {
		carrier[i] = math.Sin(w * float64(i))
	}
	if _, err := d.Write(carrier); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.WindowLen > d.windowCap {
		t.Fatalf("window %d samples, cap %d", st.WindowLen, d.windowCap)
	}
	if st.Resyncs == 0 {
		t.Fatalf("no window slides over %d undecodable samples (stats %+v)", len(carrier), st)
	}
	if st.Frames != 0 {
		t.Fatalf("decoded %d frames from an unmodulated carrier", st.Frames)
	}
}

func TestDecoderTwoPacketsInOneStream(t *testing.T) {
	recA := synthPacket(t, []byte("pkt-A"))
	recB := synthPacket(t, []byte("pkt-B"))
	recAB := append(append([]float64{}, recA...), recB...)
	d, err := NewDecoder(decoderCfg(512))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	frames := feedAll(t, d, recAB, 900)
	if len(frames) != 2 {
		t.Fatalf("%d frames, want 2 (stats %+v)", len(frames), d.Stats())
	}
	if string(frames[0].Frame.Payload) != "pkt-A" || string(frames[1].Frame.Payload) != "pkt-B" {
		t.Fatalf("payloads %q, %q", frames[0].Frame.Payload, frames[1].Frame.Payload)
	}
	if frames[1].Start <= frames[0].End-int64(32) {
		t.Fatalf("frame positions overlap: %d..%d then %d..%d",
			frames[0].Start, frames[0].End, frames[1].Start, frames[1].End)
	}
}

func TestDecoderClosedErrors(t *testing.T) {
	d, err := NewDecoder(decoderCfg(512))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write([]float64{1, 2, 3}); err == nil {
		t.Fatal("Write after Close did not error")
	}
	if _, err := d.Flush(); err == nil {
		t.Fatal("Flush after Close did not error")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestDecoderConfigValidation(t *testing.T) {
	bad := []Config{
		{SampleRate: 0, BitrateBps: 100},
		{SampleRate: 8000, BitrateBps: 0},
		{SampleRate: 8000, BitrateBps: 100, CarrierHz: 4000}, // ≥ fs/2
		{SampleRate: 8000, BitrateBps: 100, CarrierHz: -1},
	}
	for i, cfg := range bad {
		if _, err := NewDecoder(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}
