package stream

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pab/internal/frame"
)

// idle returns how many items l holds.
func idle[T any](l *freeList[T]) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// empty drops every item l holds.
func empty[T any](l *freeList[T]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.items)
	l.items = l.items[:0]
}

// emptyFreeLists returns the package to the state of a fresh process:
// nothing to recycle.
func emptyFreeLists() {
	empty(windows)
	empty(scratch)
	empty(scanners)
	empty(receivers)
}

func TestFreeListBestFitAndEviction(t *testing.T) {
	l := &freeList[[]float64]{max: 3}
	for _, n := range []int{60, 40, 100} {
		putBuf(l, make([]float64, n))
	}
	if b := getBuf(l, 50); cap(b) != 60 || len(b) != 50 {
		t.Fatalf("want for 50 got cap %d len %d, want the best fit, cap 60", cap(b), len(b))
	}
	if b := getBuf(l, 101); cap(b) != 101 || idle(l) != 2 {
		t.Fatalf("want for 101 got cap %d with %d idle, want a new buffer and both idle ones kept", cap(b), idle(l))
	}
	// Full: a put evicts the oldest (the 40), not the newcomer.
	putBuf(l, make([]float64, 10))
	putBuf(l, make([]float64, 20))
	if got := idle(l); got != 3 {
		t.Fatalf("%d idle, want the bound 3", got)
	}
	if b := getBuf(l, 30); cap(b) != 100 {
		t.Fatalf("want for 30 got cap %d, want the 100: the 40 was evicted", cap(b))
	}
}

// TestDecodeAfterOtherBitrateMatchesFresh decodes a packet on empty
// free lists, as in a fresh process, then again right after a session
// at another bitrate — on a larger or a smaller window, the first
// decode's scanners, a receiver workspace sized by other windows — and
// requires the same frames and counters.
func TestDecodeAfterOtherBitrateMatchesFresh(t *testing.T) {
	type run struct {
		frames []Frame
		stats  Stats
	}
	decode := func(bitrate float64) run {
		sc := synthCfg()
		sc.BitrateBps = bitrate
		rec, err := SynthesizeRecording(sc, frame.DataFrame{Source: 0x21, Seq: 4, Payload: []byte("rate")})
		if err != nil {
			t.Fatal(err)
		}
		cfg := decoderCfg(512)
		cfg.BitrateBps = bitrate
		cfg.CarrierHz = 0 // detect it: the pending lead-in is recycled too
		cfg.CarrierDetectSamples = 2048
		d, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		frames := feedAll(t, d, rec, 700)
		st := d.Stats()
		d.Close()
		if len(frames) != 1 {
			t.Fatalf("%g bit/s: %d frames, want 1", bitrate, len(frames))
		}
		return run{frames, st}
	}
	for _, pair := range [][2]float64{{375, 750}, {750, 375}} {
		other, rate := pair[0], pair[1]
		emptyFreeLists()
		fresh := decode(rate)
		decode(other)
		if got := decode(rate); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%g bit/s after %g bit/s: %+v, fresh %+v", rate, other, got, fresh)
		}
	}
}

// TestFreeListsStayBounded holds 200 sessions open at once, feeds them
// eight at a time, closes them all concurrently, and requires every
// free list to hold at most its bound.
func TestFreeListsStayBounded(t *testing.T) {
	const sessions = 200
	sc := SynthConfig{SampleRate: 8000, CarrierHz: 2000, BitrateBps: 500, LeadSamples: 1200, TailSamples: 600}
	rec, err := SynthesizeRecording(sc, frame.DataFrame{Source: 0x42, Seq: 1, Payload: []byte("bounded")})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SampleRate: sc.SampleRate, CarrierHz: sc.CarrierHz, BitrateBps: sc.BitrateBps, BlockSize: 256, MaxPayloadBytes: 8}
	emptyFreeLists()
	feed := make(chan struct{}, 8) // the writers allowed at once
	closing := make(chan struct{})
	var opened, closed sync.WaitGroup
	frames := make([]int, sessions)
	for i := 0; i < sessions; i++ {
		opened.Add(1)
		closed.Add(1)
		go func(i int) {
			defer closed.Done()
			c := cfg
			if i%2 == 1 {
				c.CarrierHz = 0 // half detect the carrier, holding a pending buffer
				c.CarrierDetectSamples = 1024
			}
			d, err := NewDecoder(c)
			if err != nil {
				t.Error(err)
				opened.Done()
				return
			}
			feed <- struct{}{}
			in := d.InputBuffer(len(rec))
			copy(in, rec)
			got, err := d.Write(in)
			if err == nil {
				var flushed []Frame
				flushed, err = d.Flush()
				got = append(got, flushed...)
			}
			<-feed
			if err != nil {
				t.Error(err)
			}
			frames[i] = len(got)
			opened.Done()
			<-closing
			d.Close()
		}(i)
	}
	opened.Wait()
	close(closing)
	closed.Wait()
	for i, n := range frames {
		if n != 1 {
			t.Fatalf("session %d decoded %d frames, want 1", i, n)
		}
	}
	for _, l := range []struct {
		name      string
		idle, max int
		full      bool // 200 closed sessions fill a session list
	}{
		{"windows", idle(windows), windows.max, true},
		{"scratch", idle(scratch), scratch.max, true},
		{"scanners", idle(scanners), scanners.max, true},
		{"receivers", idle(receivers), receivers.max, false},
	} {
		t.Logf("%s: %d idle, bound %d", l.name, l.idle, l.max)
		if l.idle > l.max || (l.full && l.idle < l.max) {
			t.Errorf("%s: %d idle, want the bound %d", l.name, l.idle, l.max)
		}
	}
	if procs := runtime.GOMAXPROCS(0); receivers.max != procs {
		t.Errorf("receivers bound %d, want GOMAXPROCS %d", receivers.max, procs)
	}
}
