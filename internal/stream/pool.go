package stream

import (
	"math"
	"runtime"
	"sync"

	"pab/internal/core"
	"pab/internal/phy"
)

// Free lists shared by every Decoder in the process. An ingestion
// daemon churns through thousands of short-lived streams; recycling
// their windows, block scratch, sync scanners and the receivers window
// decodes run on keeps a warm session from allocating more than its
// shell and its frames. Unlike a sync.Pool, a free list survives
// garbage collection, so a warm daemon does not rebuild its buffers
// every GC cycle. It is bounded instead, by GOMAXPROCS: idle, the lists
// retain at most the windows, block scratch and scanner pairs of
// freeSessions closed sessions, and GOMAXPROCS receivers with their
// decode workspaces. A value returned to a full list evicts the one
// idle longest.
var (
	// windows holds decode windows (complex baseband).
	windows = &freeList[[]complex128]{max: freeSessions}
	// scratch holds float64 buffers, up to three per session: its I/Q
	// block scratch, its input conversion buffer and, while it detects
	// the carrier, its pending lead-in.
	scratch = &freeList[[]float64]{max: 3 * freeSessions}
	// scanners holds sync scanners, a pair per session; a session at
	// another bitrate needs another pair.
	scanners = &freeList[*phy.SyncScanner]{max: 2 * freeSessions}
	// receivers holds the batch receivers window decodes run on, at
	// most one per goroutine that can decode at once. A core.Receiver
	// keeps its decode workspace, sized by the largest window it has
	// decoded, from call to call; borrowing one per attempt lets the
	// streams a hub decodes in turn share a few workspaces, and a
	// parked stream holds none. The list hands each receiver to one
	// goroutine at a time, which a Receiver requires.
	receivers = &freeList[*core.Receiver]{max: runtime.GOMAXPROCS(0)}
)

// freeSessions is how many closed sessions' buffers and scanners the
// free lists keep: two per processor, so every lane a hub decodes at
// once can close one session while another waits to reuse it, with
// room for sessions at a few bitrates.
var freeSessions = 2 * runtime.GOMAXPROCS(0)

// freeList is a bounded, mutex-guarded list of idle values, oldest
// first. It holds at most max items.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
	max   int
}

// take removes and returns the item with the lowest cost, skipping
// items whose cost is negative, or reports false when none qualifies.
// Of equal costs it takes the most recently returned item.
func (l *freeList[T]) take(cost func(T) int) (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	best, bestCost := -1, 0
	for i := len(l.items) - 1; i >= 0; i-- {
		if c := cost(l.items[i]); c >= 0 && (best < 0 || c < bestCost) {
			best, bestCost = i, c
		}
	}
	var zero T
	if best < 0 {
		return zero, false
	}
	v := l.items[best]
	last := len(l.items) - 1
	copy(l.items[best:], l.items[best+1:])
	l.items[last] = zero
	l.items = l.items[:last]
	return v, true
}

// put returns v to the list, evicting the oldest item when it is full.
func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) == l.max {
		copy(l.items, l.items[1:])
		l.items[len(l.items)-1] = v
		return
	}
	l.items = append(l.items, v)
}

// getBuf returns a slice of length n: the list's smallest buffer with
// room for n, so a small window is never handed a large one's memory
// while the large one's owner allocates, or a new buffer.
func getBuf[E any](l *freeList[[]E], n int) []E {
	b, ok := l.take(func(b []E) int {
		if cap(b) < n {
			return -1
		}
		return cap(b) - n
	})
	if !ok {
		return make([]E, n)
	}
	return b[:n]
}

// putBuf recycles a buffer obtained from getBuf.
func putBuf[E any](l *freeList[[]E], b []E) {
	if cap(b) > 0 {
		l.put(b[:0])
	}
}

// getScanner returns a scanner for spb samples per bit at the given
// threshold, in its just-built state: a recycled one reset, or a new
// one. Thresholds match by bits, as the configuration they are: one
// ULP apart, two scanners can report different hits.
func getScanner(spb int, threshold float64) (*phy.SyncScanner, error) {
	s, ok := scanners.take(func(s *phy.SyncScanner) int {
		if s.SamplesPerBit() != spb || math.Float64bits(s.Threshold()) != math.Float64bits(threshold) {
			return -1
		}
		return 0
	})
	if ok {
		s.Reset()
		return s, nil
	}
	fm0, err := phy.NewFM0(spb)
	if err != nil {
		return nil, err
	}
	return phy.NewSyncScanner(fm0, threshold), nil
}

// getReceiver borrows a receiver for one window decode, to be returned
// to receivers.
func getReceiver() *core.Receiver {
	if r, ok := receivers.take(func(*core.Receiver) int { return 0 }); ok {
		return r
	}
	return new(core.Receiver)
}
