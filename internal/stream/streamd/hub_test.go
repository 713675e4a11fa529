package streamd

import (
	"runtime"
	"testing"

	"pab/internal/frame"
	"pab/internal/stream"
)

// TestClosedSessionsRetainLittle opens, feeds and closes 64 sessions
// while holding every *Session, as a caller of the hub may, and
// requires each closed session to keep at most 64 KiB of heap: closing
// must hand the decoder's window and scanners back to the stream free
// lists, and no session may keep a batch receiver's decode workspace,
// which at this workload is about 400 KiB. What the free lists hold
// after the last close counts against the sessions too; GOMAXPROCS
// bounds it, not the session count.
func TestClosedSessionsRetainLittle(t *testing.T) {
	const (
		n         = 64
		perStream = 64 << 10
	)
	h := NewHub(testHubCfg())
	defer drainHub(t, h)
	rec := testRecording(t, []byte("retained"))
	sessions := make([]*Session, 0, n)

	before := heapAfterGC()
	for i := 0; i < n; i++ {
		s, err := h.Open(FormatF64LE, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := s.WriteSamples(rec)
		if err != nil {
			t.Fatal(err)
		}
		flushed, err := h.Close(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(frames) + len(flushed); got != 1 {
			t.Fatalf("session %d decoded %d frames, want 1", i, got)
		}
		sessions = append(sessions, s)
	}
	after := heapAfterGC()
	runtime.KeepAlive(sessions)

	retained := int64(after) - int64(before)
	t.Logf("%d closed sessions retain %d bytes of heap, %d per session", n, retained, retained/n)
	if retained > n*perStream {
		t.Errorf("closed sessions retain %d bytes each, want ≤ %d", retained/n, perStream)
	}
}

// heapAfterGC returns the live heap after two collections, the second
// emptying the victim caches of the sync.Pools the standard library
// keeps (fmt's printers), which the first filled. The stream free lists
// survive both.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWarmSessionsAllocateLittle runs s16le sessions at 96 kHz, in
// 20 ms chunks, at the node bitrates 496.5, 993 and 2048 bit/s in turn
// on a warmed hub with the default decoder, collecting garbage every 10
// sessions, and bounds what each session allocates: a warm session may
// allocate its shell, its filter design and its frame, not a window,
// scanner or receiver workspace. The collections prove the recycled
// state survives GC.
func TestWarmSessionsAllocateLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const (
		fs        = 96000
		carrier   = 15000
		chunk     = 2 * fs / 50 // 20 ms of s16le bytes
		perRate   = 40
		maxBytes  = 3 << 10 // measured 2.0–2.4 KB
		maxAllocs = 30      // measured 24
	)
	bitrates := []float64{496.5, 993, 2048}
	pcm := make([][]byte, len(bitrates))
	cfgs := make([]stream.Config, len(bitrates))
	for i, br := range bitrates {
		rec, err := stream.SynthesizeRecording(stream.SynthConfig{
			SampleRate: fs, CarrierHz: carrier, BitrateBps: br, LeadSamples: 4800, TailSamples: 4800,
		}, frame.DataFrame{Source: 0x51, Seq: byte(i), Payload: []byte("reply-08")})
		if err != nil {
			t.Fatal(err)
		}
		pcm[i] = s16leBytes(rec)
		cfgs[i] = stream.Config{SampleRate: fs, CarrierHz: carrier, BitrateBps: br}
	}
	h := NewHub(Config{})
	defer drainHub(t, h)
	session := func(i int) {
		s, err := h.Open(FormatS16LE, &cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		for lo := 0; lo < len(pcm[i]); lo += chunk {
			got, err := s.WriteBytes(pcm[i][lo:min(lo+chunk, len(pcm[i]))])
			if err != nil {
				t.Fatal(err)
			}
			frames += len(got)
		}
		flushed, err := h.Close(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if frames += len(flushed); frames != 1 {
			t.Fatalf("%g bit/s: %d frames, want 1", bitrates[i], frames)
		}
	}
	for i := range bitrates {
		session(i) // warm
	}
	bytes := make([]uint64, len(bitrates))
	allocs := make([]uint64, len(bitrates))
	var before, after runtime.MemStats
	for k := 0; k < perRate*len(bitrates); k++ {
		if k%10 == 0 {
			runtime.GC()
		}
		i := k % len(bitrates)
		runtime.ReadMemStats(&before)
		session(i)
		runtime.ReadMemStats(&after)
		bytes[i] += after.TotalAlloc - before.TotalAlloc
		allocs[i] += after.Mallocs - before.Mallocs
	}
	for i, br := range bitrates {
		b, n := bytes[i]/perRate, allocs[i]/perRate
		t.Logf("%g bit/s: %d bytes in %d allocations per session", br, b, n)
		if b > maxBytes || n > maxAllocs {
			t.Errorf("%g bit/s: a warm session allocates %d bytes in %d allocations, want ≤ %d bytes and ≤ %d",
				br, b, n, maxBytes, maxAllocs)
		}
	}
}
