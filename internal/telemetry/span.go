package telemetry

import (
	"sync"
	"time"
)

// Span is one timed stage of a larger operation. Spans are ctx-free:
// nesting is explicit through Child, so the signal path can decompose
// an interrogation cycle (modulate → project → piezo → rectify →
// channel → demod → sync → decode) without threading a context through
// every DSP call.
//
// A nil *Span is a valid no-op (StartSpan returns nil when the registry
// is disabled), so call sites never need to guard.
type Span struct {
	reg    *Registry
	name   string
	id     uint64
	parent uint64
	start  time.Time

	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

// StartSpan opens a root span on the registry. Returns nil (a no-op
// span) when the registry is disabled.
func (r *Registry) StartSpan(name string) *Span {
	if !r.enabled.Load() {
		return nil
	}
	return &Span{reg: r, name: name, id: r.spanSeq.Add(1), start: time.Now()}
}

// StartSpan opens a root span on the default registry.
func StartSpan(name string) *Span { return defaultReg.StartSpan(name) }

// Child opens a nested span. Safe on a nil or ended parent (returns a
// fresh root-less no-op or root span accordingly).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	if !s.reg.enabled.Load() {
		return nil
	}
	return &Span{reg: s.reg, name: name, id: s.reg.spanSeq.Add(1), parent: s.id, start: time.Now()}
}

// Attr attaches a key/value attribute (JSON-encodable values) and
// returns the span for chaining. No-op on nil.
func (s *Span) Attr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
	s.mu.Unlock()
	return s
}

// End closes the span, records it into the registry's span ring and
// feeds its duration into the `span_<name>_seconds` histogram. It
// returns the measured duration; calling End again (or on nil) is a
// no-op returning zero.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	attrs, first := s.finish()
	if !first {
		return 0
	}

	d := time.Since(s.start)
	r := s.reg
	r.file(SpanRecord{
		ID:              s.id,
		ParentID:        s.parent,
		Name:            s.name,
		Start:           s.start,
		DurationSeconds: d.Seconds(),
		Attrs:           attrs,
	})
	// Span names are caller-chosen stage identifiers, not metrics
	// registry keys; the derived histogram name is the one sanctioned
	// dynamic metric in the process.
	//pablint:ignore telemetryhygiene span duration histograms derive their name from the span stage name
	r.Observe(Name("span_"+s.name+"_seconds"), d.Seconds())
	return d
}

// finish atomically claims the span's single End: the first caller
// gets the attrs snapshot and first == true; later calls see false.
func (s *Span) finish() (map[string]any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return nil, false
	}
	s.ended = true
	return s.attrs, true
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's registry-unique id (0 on nil — a no-op span —
// so it can be passed straight to RecordSpan as a parent).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// RecordSpan files an externally measured span directly into the span
// ring: a phase whose boundaries were observed after the fact (the
// scheduler's queue-wait, reconstructed at dequeue) or measured by a
// specialised timer (prof.StageTimer). rec.ParentID links the record
// into an existing span tree (0 for a root); rec.ID is assigned here.
// Unlike Span.End it does not feed the span_*_seconds histogram — the
// caller owns any histogram observation. Returns the assigned id (0
// when disabled).
func (r *Registry) RecordSpan(rec SpanRecord) uint64 {
	if !r.enabled.Load() {
		return 0
	}
	rec.ID = r.spanSeq.Add(1)
	r.file(rec)
	return rec.ID
}

// file writes a finished span record into the ring.
func (r *Registry) file(rec SpanRecord) {
	r.spanMu.Lock()
	r.spans[r.spanPos] = rec
	r.spanPos = (r.spanPos + 1) % len(r.spans)
	if r.spanLen < len(r.spans) {
		r.spanLen++
	}
	r.spanMu.Unlock()
}
