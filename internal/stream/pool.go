package stream

import (
	"sync"

	"pab/internal/core"
)

// Buffer pools shared by every Decoder in the process. An ingestion
// daemon churns through thousands of short-lived streams; recycling the
// window and scratch buffers keeps per-stream setup from scaling the
// heap with stream arrival rate. Pools store pointers to slice headers
// (the sync.Pool idiom that avoids an allocation per Put).

var (
	f64Pool  = sync.Pool{}
	c128Pool = sync.Pool{}
)

// getF64 returns a float64 slice of length n, recycled when a pooled
// buffer is large enough.
func getF64(n int) []float64 {
	if p, ok := f64Pool.Get().(*[]float64); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

// putF64 recycles a buffer obtained from getF64.
func putF64(s []float64) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	f64Pool.Put(&s)
}

// getC128 returns a complex128 slice of length n, recycled when a
// pooled buffer is large enough.
func getC128(n int) []complex128 {
	if p, ok := c128Pool.Get().(*[]complex128); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]complex128, n)
}

// putC128 recycles a buffer obtained from getC128.
func putC128(s []complex128) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	c128Pool.Put(&s)
}

// receivers recycles the batch receivers window decodes run on. A
// core.Receiver keeps its decode workspace, sized by the largest window
// it has decoded, from call to call; borrowing one per attempt lets the
// streams a hub decodes in turn share a few workspaces, and a parked
// stream holds none. sync.Pool hands each receiver to one goroutine at
// a time, which a Receiver requires.
var receivers = sync.Pool{New: func() any { return new(core.Receiver) }}
