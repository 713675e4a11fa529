package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// equivExchange is one equivalence case's recording, ready to decode.
type equivExchange struct {
	c         equivCase
	recording []float64
	gate      int
	bitrate   float64
}

func equivExchanges(t *testing.T) []equivExchange {
	t.Helper()
	cases := equivCases()
	out := make([]equivExchange, len(cases))
	for i, c := range cases {
		rec, gate, bitrate, _ := c.exchange(t)
		out[i] = equivExchange{c: c, recording: rec, gate: gate, bitrate: bitrate}
	}
	return out
}

func (e *equivExchange) decode(r *Receiver) (*Decoded, error) {
	return r.DecodeUplink(e.recording, DefaultLinkConfig().CarrierHz, e.bitrate, e.gate)
}

// Steady-state bounds for one DecodeUplink on a warm Receiver: what is
// left is the result — the Decoded, its bits and its payload, 3
// allocations and 208 bytes on these exchanges, 0 on a miss — plus
// about a quarter. A receiver that allocates its buffers per call needs
// 266–360 allocations and 1.7–11 MB.
const (
	steadyAllocs = 4
	steadyBytes  = 256
)

// TestReceiverSteadyStateAllocs warms one Receiver over the equivalence
// set, then requires every case's decode to allocate little more than
// its result: the workspace must cover every buffer of the chain,
// including the block-tracked fallback the drifting cases take.
func TestReceiverSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("sample-level exchanges")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the bounds hold for the uninstrumented build")
	}
	exs := equivExchanges(t)
	r, err := NewReceiver(DefaultLinkConfig().SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: the drifting 6 m/s case fails its CRC, so errors are
	// expected here.
	for i := range exs {
		_, _ = exs[i].decode(r)
	}
	for i := range exs {
		e := &exs[i]
		allocs := testing.AllocsPerRun(3, func() { _, _ = e.decode(r) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = e.decode(r)
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%v: %.0f allocs, %d bytes", e.c, allocs, bytes)
		if allocs > steadyAllocs || bytes > steadyBytes {
			t.Errorf("%v: %.0f allocations and %d bytes per decode, want ≤ %d and ≤ %d",
				e.c, allocs, bytes, steadyAllocs, steadyBytes)
		}
	}
}

// TestReceiverResultOwnership checks that a decode result shares no
// memory with the workspace: decoding another exchange on the same
// Receiver leaves an earlier result unchanged, equal to a fresh
// Receiver's decode.
func TestReceiverResultOwnership(t *testing.T) {
	if testing.Short() {
		t.Skip("sample-level exchanges")
	}
	cases := equivCases()
	// Two decodable exchanges at different bitrates and tanks.
	var a, b equivExchange
	for _, c := range cases {
		if c.bitrate == 500 && !c.poolB && c.speedMS == 0 && a.recording == nil {
			rec, gate, br, _ := c.exchange(t)
			a = equivExchange{c: c, recording: rec, gate: gate, bitrate: br}
		}
		if c.bitrate == 2000 && c.poolB && b.recording == nil {
			rec, gate, br, _ := c.exchange(t)
			b = equivExchange{c: c, recording: rec, gate: gate, bitrate: br}
		}
	}
	if a.recording == nil || b.recording == nil {
		t.Fatal("equivalence set lacks a 500 bit/s pool A or a 2000 bit/s pool B case")
	}
	fs := DefaultLinkConfig().SampleRate
	shared, err := NewReceiver(fs)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := a.decode(shared)
	if err != nil {
		t.Fatalf("%v: %v", a.c, err)
	}
	snapshot := *gotA
	snapshot.Bits = slices.Clone(gotA.Bits)
	snapshot.Frame.Payload = slices.Clone(gotA.Frame.Payload)
	if _, err := b.decode(shared); err != nil {
		t.Fatalf("%v: %v", b.c, err)
	}
	if !reflect.DeepEqual(*gotA, snapshot) {
		t.Fatalf("decoding %v changed the earlier result of %v:\n got %+v\nwant %+v", b.c, a.c, *gotA, snapshot)
	}
	fresh, err := NewReceiver(fs)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := a.decode(fresh)
	if err != nil {
		t.Fatalf("%v: %v", a.c, err)
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatalf("%v on a used Receiver:\n got %+v\nwant %+v", a.c, *gotA, *wantA)
	}
}

// retainedBytes is the live heap only r keeps: the heap after a
// collection with r, less the heap after one without it. The caller
// must not use r afterwards.
func retainedBytes(r *Receiver) uint64 {
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(r)
	runtime.GC()
	runtime.ReadMemStats(&without)
	if with.HeapAlloc < without.HeapAlloc {
		return 0
	}
	return with.HeapAlloc - without.HeapAlloc
}

// TestReceiverWorkingSet warms one Receiver over the equivalence set
// and bounds what it keeps: the gated baseband and the coarse
// projection are its only recording-length buffers, the spans a lock
// decodes are packet-sized, and everything else — the front end's volts
// block, the correlator's scan window, the kept lags, the refine
// window, bits, trellis, codecs and filters — fits in 256 KiB.
func TestReceiverWorkingSet(t *testing.T) {
	if testing.Short() {
		t.Skip("sample-level exchanges")
	}
	exs := equivExchanges(t)
	fs := DefaultLinkConfig().SampleRate
	one, err := NewReceiver(fs)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = exs[0].decode(one)
	t.Logf("after %v alone: %d bytes retained", exs[0].c, retainedBytes(one))

	r, err := NewReceiver(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exs {
		_, _ = exs[i].decode(r)
	}
	ws := r.ws
	chain := 16*cap(ws.bb) + 8*cap(ws.coarse)
	spans := 8 * (cap(ws.header) + cap(ws.packet) + cap(ws.refined))
	const rest = 256 << 10
	got := retainedBytes(r)
	t.Logf("retained %d bytes: baseband and coarse projection %d, spans %d, the rest %d", got, chain, spans, int(got)-chain-spans)
	if got > uint64(chain+spans+rest) {
		t.Errorf("receiver retains %d bytes, want ≤ %d (baseband and coarse projection) + %d (spans) + %d",
			got, chain, spans, rest)
	}
}
