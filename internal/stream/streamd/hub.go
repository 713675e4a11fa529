// Package streamd is the service layer over the streaming decoder: a
// hub of concurrent per-stream decode sessions with admission control,
// idle reaping and graceful drain, plus the HTTP ingestion API the
// pabstream daemon serves. The pure sample pipeline lives in
// package stream; everything that needs a clock, a mutex or a
// goroutine lives here.
package streamd

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pab/internal/stream"
	"pab/internal/telemetry"
)

// Flow-control errors, mapped onto HTTP by the server.
var (
	// ErrDraining rejects new streams while the hub shuts down.
	ErrDraining = errors.New("streamd: hub is draining")
	// ErrTooManyStreams sheds stream opens past the admission limit.
	ErrTooManyStreams = errors.New("streamd: too many concurrent streams")
	// ErrSessionClosed rejects writes to a closed session.
	ErrSessionClosed = errors.New("streamd: session is closed")
)

// Sample formats accepted on ingest.
const (
	// FormatF64LE is little-endian float64 PCM (the simulator's native
	// voltage samples).
	FormatF64LE = "f64le"
	// FormatS16LE is little-endian int16 PCM scaled to ±1 (what a
	// sound-card capture produces).
	FormatS16LE = "s16le"
)

// bytesPerSample returns the frame size of a format (0 for unknown).
func bytesPerSample(format string) int {
	switch format {
	case FormatF64LE:
		return 8
	case FormatS16LE:
		return 2
	default:
		return 0
	}
}

// Config parameterises a hub.
type Config struct {
	// Decoder is the per-stream decoder template; each session gets
	// its own decoder built from a copy.
	Decoder stream.Config
	// MaxStreams bounds concurrent sessions (default 1024); opens past
	// it get ErrTooManyStreams, the load-shedding contract pabd set.
	MaxStreams int
	// IdleTimeout reaps sessions with no writes for this long
	// (default 60s; ≤0 keeps the reaper off).
	IdleTimeout time.Duration
	// RetryAfter is the backoff hint returned with shed opens
	// (default 1s).
	RetryAfter time.Duration
}

func (c *Config) applyDefaults() {
	if c.MaxStreams <= 0 {
		c.MaxStreams = 1024
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// Hub owns the live sessions. Lock order: Hub.mu before Session.mu,
// never the reverse.
type Hub struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   uint64
	draining bool

	done     chan struct{}
	stopOnce sync.Once
	reapWG   sync.WaitGroup
}

// NewHub builds a hub and starts its idle reaper (when configured).
func NewHub(cfg Config) *Hub {
	cfg.applyDefaults()
	h := &Hub{
		cfg:      cfg,
		sessions: make(map[string]*Session),
		done:     make(chan struct{}),
	}
	if cfg.IdleTimeout > 0 {
		h.reapWG.Add(1)
		go h.reap()
	}
	return h
}

// Open admits a new stream session. format must be a Format* constant;
// override, when non-nil, replaces the decoder template (the API lets
// a client pick its own rate/carrier/bitrate).
func (h *Hub) Open(format string, override *stream.Config) (*Session, error) {
	if bytesPerSample(format) == 0 {
		return nil, fmt.Errorf("streamd: unknown sample format %q", format)
	}
	dcfg := h.cfg.Decoder
	if override != nil {
		dcfg = *override
	}
	id, err := h.admit()
	if err != nil {
		telemetry.Inc(telemetry.MStreamStreamsRejectedTotal)
		if errors.Is(err, ErrTooManyStreams) {
			telemetry.Inc(telemetry.MStreamShedTotal)
		}
		return nil, err
	}

	// Build the decoder outside the lock: it takes its window and
	// scanners from the stream package's free lists, and builds them
	// when those hold none that fit, the expensive part of admission.
	dec, err := stream.NewDecoder(dcfg)
	if err != nil {
		return nil, err
	}
	s := &Session{ID: id, hub: h, dec: dec, format: format}
	s.touch()

	active, err := h.install(s)
	if err != nil {
		dec.Close()
		telemetry.Inc(telemetry.MStreamStreamsRejectedTotal)
		return nil, err
	}
	telemetry.Inc(telemetry.MStreamStreamsOpenedTotal)
	telemetry.Set(telemetry.MStreamStreamsActive, float64(active))
	return s, nil
}

// admit checks admission (drain state, stream cap) and reserves an id.
func (h *Hub) admit() (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.draining {
		return "", ErrDraining
	}
	if len(h.sessions) >= h.cfg.MaxStreams {
		return "", ErrTooManyStreams
	}
	h.nextID++
	return "s" + strconv.FormatUint(h.nextID, 10), nil
}

// install registers a built session, re-checking the drain flag that
// may have flipped while the decoder was allocating. Returns the
// active-session count.
func (h *Hub) install(s *Session) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.draining {
		return 0, ErrDraining
	}
	h.sessions[s.ID] = s
	return len(h.sessions), nil
}

// Get returns a live session by id.
func (h *Hub) Get(id string) (*Session, bool) {
	h.mu.Lock()
	s, ok := h.sessions[id]
	h.mu.Unlock()
	return s, ok
}

// Close flushes and tears down one session, returning the frames the
// flush recovered.
func (h *Hub) Close(id string) ([]stream.Frame, error) {
	h.mu.Lock()
	s, ok := h.sessions[id]
	delete(h.sessions, id)
	active := len(h.sessions)
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("streamd: no such stream %q", id)
	}
	telemetry.Inc(telemetry.MStreamStreamsClosedTotal)
	telemetry.Set(telemetry.MStreamStreamsActive, float64(active))
	return s.finish()
}

// ActiveCount returns the number of live sessions.
func (h *Hub) ActiveCount() int {
	h.mu.Lock()
	n := len(h.sessions)
	h.mu.Unlock()
	return n
}

// Draining reports whether intake has stopped.
func (h *Hub) Draining() bool {
	h.mu.Lock()
	d := h.draining
	h.mu.Unlock()
	return d
}

// RetryAfterSeconds is the backoff hint for shed opens, ≥ 1.
func (h *Hub) RetryAfterSeconds() int {
	secs := int(h.cfg.RetryAfter.Seconds())
	if secs < 1 {
		secs = 1
	}
	return secs
}

// BeginDrain stops intake: subsequent Opens fail with ErrDraining.
// Existing sessions keep writing until Drain flushes them.
func (h *Hub) BeginDrain() {
	h.mu.Lock()
	h.draining = true
	h.mu.Unlock()
}

// Drain stops intake, flushes every in-flight session's window (the
// graceful-SIGTERM contract: buffered blocks decode before exit), and
// stops the reaper. It returns ctx's error if the deadline cut the
// flush short.
func (h *Hub) Drain(ctx context.Context) error {
	h.BeginDrain()
	h.stopOnce.Do(func() { close(h.done) })

	h.mu.Lock()
	rest := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		rest = append(rest, s)
	}
	h.sessions = make(map[string]*Session)
	h.mu.Unlock()

	var err error
	for _, s := range rest {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			s.discard()
			continue
		}
		if _, ferr := s.finish(); ferr != nil && !errors.Is(ferr, ErrSessionClosed) && err == nil {
			err = ferr
		}
		telemetry.Inc(telemetry.MStreamStreamsClosedTotal)
	}
	telemetry.Set(telemetry.MStreamStreamsActive, 0)
	h.reapWG.Wait()
	return err
}

// reap closes sessions idle past the configured timeout.
func (h *Hub) reap() {
	defer h.reapWG.Done()
	period := h.cfg.IdleTimeout / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-h.done:
			return
		case now := <-t.C:
			h.reapIdle(now)
		}
	}
}

// reapIdle tears down every session whose last write is older than the
// idle timeout. Flush results are discarded — an abandoned stream has
// nobody left to deliver frames to.
func (h *Hub) reapIdle(now time.Time) {
	cutoff := now.Add(-h.cfg.IdleTimeout).UnixNano()
	h.mu.Lock()
	var idle []*Session
	for id, s := range h.sessions {
		if s.last.Load() < cutoff {
			idle = append(idle, s)
			delete(h.sessions, id)
		}
	}
	active := len(h.sessions)
	h.mu.Unlock()
	for _, s := range idle {
		s.discard()
		telemetry.Inc(telemetry.MStreamStreamsReapedTotal)
		telemetry.Inc(telemetry.MStreamStreamsClosedTotal)
	}
	if len(idle) > 0 {
		telemetry.Set(telemetry.MStreamStreamsActive, float64(active))
	}
}

// Session is one client stream: a decoder, its sample format, and the
// byte-to-sample conversion state. Writes are serialised by mu; last
// is atomic so the reaper never takes Session.mu (Hub.mu → Session.mu
// is the only nesting).
type Session struct {
	ID     string
	hub    *Hub
	format string

	mu     sync.Mutex
	dec    *stream.Decoder
	carry  [8]byte // partial sample bytes between chunks
	carryN int
	frames int64
	closed bool

	last atomic.Int64 // unix nanos of the last write
}

// touch records write activity for the idle reaper.
func (s *Session) touch() { s.last.Store(time.Now().UnixNano()) }

// WriteBytes converts one chunk of PCM bytes and feeds the decoder,
// returning any frames it completed. A trailing partial sample is
// carried into the next call (chunked transfer encoding tears at
// arbitrary byte offsets).
func (s *Session) WriteBytes(b []byte) ([]stream.Frame, error) {
	s.touch()
	telemetry.Add(telemetry.MStreamBytesTotal, int64(len(b)))
	width := bytesPerSample(s.format)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	samples := s.dec.InputBuffer((s.carryN + len(b)) / width)
	for i := range samples {
		samples[i] = s.nextSampleLocked(&b, width)
	}
	// Stash the leftover tail for the next chunk.
	for len(b) > 0 {
		s.carry[s.carryN] = b[0]
		s.carryN++
		b = b[1:]
	}
	return s.writeLocked(samples)
}

// nextSampleLocked decodes one sample from the carry plus *b,
// consuming the bytes it used. Callers guarantee enough bytes remain.
func (s *Session) nextSampleLocked(b *[]byte, width int) float64 {
	var raw [8]byte
	k := copy(raw[:width], s.carry[:s.carryN])
	k += copy(raw[k:width], *b)
	*b = (*b)[k-s.carryN:]
	s.carryN = 0
	switch s.format {
	case FormatS16LE:
		return float64(int16(binary.LittleEndian.Uint16(raw[:2]))) / 32768
	default: // FormatF64LE
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:8]))
	}
}

// WriteSamples feeds already-converted samples (the in-process path
// the stream benchmark drives).
func (s *Session) WriteSamples(samples []float64) ([]stream.Frame, error) {
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	return s.writeLocked(samples)
}

// writeLocked runs the decoder and observes decode latency.
func (s *Session) writeLocked(samples []float64) ([]stream.Frame, error) {
	start := time.Now()
	frames, err := s.dec.Write(samples)
	telemetry.Observe(telemetry.MStreamDecodeLatencySeconds, time.Since(start).Seconds())
	s.frames += int64(len(frames))
	return frames, err
}

// Flush decodes whatever the session's window still holds.
func (s *Session) Flush() ([]stream.Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	frames, err := s.dec.Flush()
	s.frames += int64(len(frames))
	return frames, err
}

// Stats snapshots the underlying decoder plus the session frame count.
func (s *Session) Stats() (stream.Stats, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return stream.Stats{}, s.frames
	}
	return s.dec.Stats(), s.frames
}

// finish flushes and closes the session.
func (s *Session) finish() ([]stream.Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	frames, err := s.dec.Flush()
	s.frames += int64(len(frames))
	s.closed = true
	s.dec.Close()
	return frames, err
}

// discard closes the session without flushing (reaper/deadline path).
func (s *Session) discard() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.dec.Close()
}
