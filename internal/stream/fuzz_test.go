package stream

import (
	"reflect"
	"testing"

	"pab/internal/frame"
)

// chunkResyncSeeds are FuzzChunkResync's seed inputs: a payload and
// the chunk cuts.
var chunkResyncSeeds = []struct{ payload, cuts []byte }{
	{[]byte("hi"), []byte{1, 7, 255}},
	{[]byte{}, []byte{0}},
	{[]byte{0xAA, 0x55, 0x00, 0xFF}, []byte{3, 3, 3, 3, 3, 3}},
	{[]byte("abcdefgh"), []byte{128, 1, 64}},
}

// FuzzChunkResync drives the streaming decoder with fuzz-chosen chunk
// boundaries — including 1-sample chunks, torn preambles and a short
// final chunk — and checks the invariant the whole design rests on:
// chunking never panics, and never loses a frame the monolithic feed
// of the same samples decodes. Payload content is fuzz-chosen too, so
// the resync logic is exercised across frame lengths.
func FuzzChunkResync(f *testing.F) {
	for _, s := range chunkResyncSeeds {
		f.Add(s.payload, s.cuts)
	}
	f.Fuzz(func(t *testing.T, payload, cuts []byte) {
		checkChunkResync(t, payload, cuts)
	})
}

// TestChunkResyncSeedsOnRecycledState runs FuzzChunkResync's seeds
// twice in one process, so the second pass decodes on the windows,
// scanners and receivers the first returned to the free lists, and
// requires the second pass's frames to be the first's exactly.
func TestChunkResyncSeedsOnRecycledState(t *testing.T) {
	first := make([][]Frame, len(chunkResyncSeeds))
	for pass := 1; pass <= 2; pass++ {
		for i, s := range chunkResyncSeeds {
			got := checkChunkResync(t, s.payload, s.cuts)
			if pass == 1 {
				first[i] = got
			} else if !reflect.DeepEqual(got, first[i]) {
				t.Fatalf("seed %d: recycled-state frames %+v, first pass %+v", i, got, first[i])
			}
		}
	}
}

// checkChunkResync decodes one synthetic packet fed whole and fed in
// the chunks cuts chooses, requires the same frames from both, and
// returns the chunked feed's frames.
func checkChunkResync(t *testing.T, payload, cuts []byte) []Frame {
	t.Helper()
	if len(payload) > 8 {
		payload = payload[:8]
	}
	sc := SynthConfig{
		SampleRate:  8000,
		CarrierHz:   2000,
		BitrateBps:  500, // 16 samples per bit
		LeadSamples: 1200,
		TailSamples: 600,
	}
	rec, err := SynthesizeRecording(sc, frame.DataFrame{Source: 0x42, Seq: 9, Payload: payload})
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	cfg := Config{
		SampleRate:      sc.SampleRate,
		CarrierHz:       sc.CarrierHz,
		BitrateBps:      sc.BitrateBps,
		BlockSize:       256,
		MaxPayloadBytes: 8,
	}

	// Reference: the same recording fed in one Write.
	mono := mustDecodeAll(t, cfg, rec, nil)

	// Fuzzed chunking: cut sizes come from the fuzz input (0 → an
	// empty Write; the tail past the last cut is the short final
	// chunk).
	chunked := mustDecodeAll(t, cfg, rec, cuts)

	if len(chunked) != len(mono) {
		t.Fatalf("chunked feed decoded %d frames, monolithic %d (cuts %v)", len(chunked), len(mono), cuts)
	}
	for i := range mono {
		a, b := mono[i], chunked[i]
		if string(a.Frame.Payload) != string(b.Frame.Payload) ||
			a.Frame.Source != b.Frame.Source || a.Frame.Seq != b.Frame.Seq {
			t.Fatalf("frame %d differs: %+v vs %+v", i, a.Frame, b.Frame)
		}
		// Lock positions may differ by the axis estimate's sample
		// ordering, never by more than a bit interval.
		if absDiff64(a.Start, b.Start) > 16 {
			t.Fatalf("frame %d locks at %d monolithic vs %d chunked", i, a.Start, b.Start)
		}
	}
	return chunked
}

// mustDecodeAll runs one decoder over rec. With cuts == nil the whole
// recording goes in one Write; otherwise each cut byte is a chunk
// length (clamped to what remains) and the remainder follows.
func mustDecodeAll(t *testing.T, cfg Config, rec []float64, cuts []byte) []Frame {
	t.Helper()
	d, err := NewDecoder(cfg)
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	defer d.Close()
	var out []Frame
	write := func(chunk []float64) {
		fs, err := d.Write(chunk)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		out = append(out, fs...)
	}
	if cuts == nil {
		write(rec)
	} else {
		off := 0
		for _, c := range cuts {
			if off >= len(rec) {
				break
			}
			n := int(c)
			if n > len(rec)-off {
				n = len(rec) - off
			}
			write(rec[off : off+n])
			off += n
		}
		if off < len(rec) {
			write(rec[off:])
		}
	}
	fs, err := d.Flush()
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	return append(out, fs...)
}
