package streamd

import (
	"runtime"
	"testing"
)

// TestClosedSessionsRetainLittle opens, feeds and closes 64 sessions
// while holding every *Session, as a caller of the hub may, and
// requires each closed session to keep at most 64 KiB of heap: closing
// must drop the decoder's window and scanners, and no session may keep
// a batch receiver's decode workspace, which at this workload is about
// 400 KiB.
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
// emptying the sync.Pool victim caches the first filled.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
