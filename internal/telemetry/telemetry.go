// Package telemetry is the observability substrate of the PAB
// reproduction: a zero-dependency (stdlib-only), concurrency-safe
// instrumentation layer that the signal path threads its internal
// quantities through instead of throwing them away.
//
// It provides three primitives:
//
//   - a metrics registry — monotonic Counters, last-value Gauges and
//     bucketed Histograms, exportable as a point-in-time Snapshot, as
//     JSON (WriteJSON) or in the Prometheus text exposition format
//     (WritePrometheusText);
//   - lightweight span tracing (StartSpan / Span.Child / Span.End) so a
//     full interrogation cycle decomposes into per-stage timings
//     (modulate → project → piezo → rectify → channel → demod → sync →
//     decode) without any context plumbing;
//   - DecodeReport, a per-uplink-decode diagnostic record (slicer SNR,
//     sync-correlation peak, preamble bit errors, CFO, retry count)
//     kept in a bounded ring for post-hoc analysis.
//
// Everything funnels into a process-wide Default registry by default;
// independent registries can be created for tests. The whole layer can
// be switched off with SetEnabled(false), which reduces every call site
// to an atomic load — the overhead bench in the repo root holds the
// instrumented hot path within 2% of that no-op sink.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 before the first Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a bucketed distribution with cumulative export.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nxt := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nxt) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the inclusive upper edge; +Inf for the last bucket.
	UpperBound float64 `json:"le"`
	// Count is cumulative: observations ≤ UpperBound.
	Count int64 `json:"count"`
}

// bucketJSON is the wire form: the +Inf upper bound of the final bucket
// is not a JSON number, so it travels as the string "+Inf".
type bucketJSON struct {
	UpperBound any   `json:"le"`
	Count      int64 `json:"count"`
}

// MarshalJSON encodes the +Inf bound as the string "+Inf".
func (b Bucket) MarshalJSON() ([]byte, error) {
	var le any = b.UpperBound
	if math.IsInf(b.UpperBound, 1) {
		le = "+Inf"
	}
	return json.Marshal(bucketJSON{UpperBound: le, Count: b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	switch v := w.UpperBound.(type) {
	case float64:
		b.UpperBound = v
	case string:
		b.UpperBound = math.Inf(1)
	}
	b.Count = w.Count
	return nil
}

// HistogramSnapshot is a point-in-time view of a Histogram.
type HistogramSnapshot struct {
	Buckets []Bucket `json:"buckets"`
	Sum     float64  `json:"sum"`
	Count   int64    `json:"count"`
}

// DefDurationBuckets are the default histogram bounds for span and
// stage durations, in seconds (10 µs … 30 s, roughly ×3 per step).
var DefDurationBuckets = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30,
}

// DefCountBuckets are default bounds for small-integer distributions
// (taps, candidates, slot occupancy …).
var DefCountBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// DefThroughputBuckets are default bounds for rate distributions
// (samples/sec through a DSP stage), 1 kHz … 1 GHz, ~×3 per step.
var DefThroughputBuckets = []float64{
	1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9,
}

// DefBytesBuckets are default bounds for byte-size distributions
// (per-stage allocation deltas), 0 … 256 MiB.
var DefBytesBuckets = []float64{
	0, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
}

// SpanRecord is a finished span as stored in the registry.
type SpanRecord struct {
	ID       uint64    `json:"id"`
	ParentID uint64    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	// DurationSeconds is wall time between StartSpan/Child and End.
	DurationSeconds float64 `json:"duration_seconds"`
	// Samples and AllocBytes are a pipeline stage's input samples and
	// heap-allocation delta, filed by prof.StageTimer (0 elsewhere,
	// and AllocBytes unless allocation tracking is on).
	Samples    int64          `json:"samples,omitempty"`
	AllocBytes int64          `json:"alloc_bytes,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// Snapshot is a consistent point-in-time export of a Registry.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Spans are the most recent finished spans, oldest first.
	Spans []SpanRecord `json:"spans,omitempty"`
	// DecodeReports are the most recent uplink decode diagnostics,
	// oldest first.
	DecodeReports []DecodeReport `json:"decode_reports,omitempty"`
	// Extra carries named JSON sections contributed by PublishExtra
	// callbacks (e.g. the scheduler's slowest-jobs table).
	Extra map[string]any `json:"extra,omitempty"`
}

const (
	maxSpanRecords   = 4096
	maxDecodeReports = 512
)

// Registry owns a namespace of metrics, spans and decode reports. The
// zero value is not usable; call NewRegistry. All methods are safe for
// concurrent use.
type Registry struct {
	enabled atomic.Bool

	mu       sync.RWMutex
	counters map[Name]*Counter
	gauges   map[Name]*Gauge
	hists    map[Name]*Histogram

	spanSeq atomic.Uint64
	spanMu  sync.Mutex
	spans   []SpanRecord // ring
	spanPos int
	spanLen int

	reportMu  sync.Mutex
	reports   []DecodeReport // ring
	reportPos int
	reportLen int

	extraMu sync.RWMutex
	extras  map[string]func() any
	routes  map[string]http.Handler

	expvarOnce sync.Once
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[Name]*Counter),
		gauges:   make(map[Name]*Gauge),
		hists:    make(map[Name]*Histogram),
		spans:    make([]SpanRecord, maxSpanRecords),
		reports:  make([]DecodeReport, maxDecodeReports),
	}
	r.enabled.Store(true)
	return r
}

// SetEnabled switches the whole registry on or off. When off, every
// instrumentation call returns after one atomic load; existing values
// are retained.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name Name) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name Name) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later callers get the existing
// histogram regardless of bounds; nil/empty bounds select
// DefDurationBuckets).
func (r *Registry) Histogram(name Name, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if len(bounds) == 0 {
		bounds = DefDurationBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Inc bumps the named counter by one (no-op when disabled).
func (r *Registry) Inc(name Name) { r.Add(name, 1) }

// Add bumps the named counter by n (no-op when disabled).
func (r *Registry) Add(name Name, n int64) {
	if !r.enabled.Load() {
		return
	}
	r.Counter(name).Add(n)
}

// Set stores v into the named gauge (no-op when disabled).
func (r *Registry) Set(name Name, v float64) {
	if !r.enabled.Load() {
		return
	}
	r.Gauge(name).Set(v)
}

// Observe records v into the named histogram, creating it with default
// duration buckets when new (no-op when disabled).
func (r *Registry) Observe(name Name, v float64) {
	if !r.enabled.Load() {
		return
	}
	r.Histogram(name, nil).Observe(v)
}

// ObserveN records v into the named histogram with the given bounds on
// first use (no-op when disabled).
func (r *Registry) ObserveN(name Name, bounds []float64, v float64) {
	if !r.enabled.Load() {
		return
	}
	r.Histogram(name, bounds).Observe(v)
}

// PublishExtra registers a callback whose JSON-encodable return value
// appears in every Snapshot under Extra[name] (and with it in
// /telemetry.json). Re-publishing a name replaces the callback; a nil
// callback removes it. The callback runs outside the registry's locks,
// so it may itself read metrics, but it must be safe for concurrent
// use and should return quickly.
func (r *Registry) PublishExtra(name string, f func() any) {
	r.extraMu.Lock()
	defer r.extraMu.Unlock()
	if f == nil {
		delete(r.extras, name)
		return
	}
	if r.extras == nil {
		r.extras = make(map[string]func() any)
	}
	r.extras[name] = f
}

// Handle mounts an extra route on every http.Handler the registry
// subsequently builds (Handler). The profiler uses this to expose
// /trace.json without the telemetry core depending on it. Patterns
// shadowing the built-in routes are ignored.
func (r *Registry) Handle(pattern string, h http.Handler) {
	r.extraMu.Lock()
	defer r.extraMu.Unlock()
	if r.routes == nil {
		r.routes = make(map[string]http.Handler)
	}
	r.routes[pattern] = h
}

// Reset clears every metric, span and decode report (the registry stays
// enabled/disabled as it was). Intended for tests and between
// experiment runs.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.counters = make(map[Name]*Counter)
	r.gauges = make(map[Name]*Gauge)
	r.hists = make(map[Name]*Histogram)
	r.mu.Unlock()
	r.spanMu.Lock()
	r.spanPos, r.spanLen = 0, 0
	r.spanMu.Unlock()
	r.reportMu.Lock()
	r.reportPos, r.reportLen = 0, 0
	r.reportMu.Unlock()
}

// Snapshot returns a consistent copy of everything recorded so far.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		TakenAt:    time.Now(),
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.RLock()
	for name, c := range r.counters {
		snap.Counters[string(name)] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[string(name)] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Sum: h.Sum(), Count: h.Count()}
		cum := int64(0)
		for i, ub := range h.bounds {
			cum += h.counts[i].Load()
			hs.Buckets = append(hs.Buckets, Bucket{UpperBound: ub, Count: cum})
		}
		cum += h.counts[len(h.bounds)].Load()
		hs.Buckets = append(hs.Buckets, Bucket{UpperBound: math.Inf(1), Count: cum})
		snap.Histograms[string(name)] = hs
	}
	r.mu.RUnlock()

	r.spanMu.Lock()
	snap.Spans = ringCopy(r.spans, r.spanPos, r.spanLen)
	r.spanMu.Unlock()
	r.reportMu.Lock()
	snap.DecodeReports = ringCopy(r.reports, r.reportPos, r.reportLen)
	r.reportMu.Unlock()

	r.extraMu.RLock()
	fns := make(map[string]func() any, len(r.extras))
	for name, f := range r.extras {
		fns[name] = f
	}
	r.extraMu.RUnlock()
	if len(fns) > 0 {
		snap.Extra = make(map[string]any, len(fns))
		for name, f := range fns {
			snap.Extra[name] = f()
		}
	}
	return snap
}

// ringCopy returns the live contents of a ring buffer oldest-first.
func ringCopy[T any](ring []T, pos, length int) []T {
	if length == 0 {
		return nil
	}
	out := make([]T, 0, length)
	start := pos - length
	if start < 0 {
		start += len(ring)
	}
	for i := 0; i < length; i++ {
		out = append(out, ring[(start+i)%len(ring)])
	}
	return out
}

// WriteJSON writes an indented JSON snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// WritePrometheusText writes the metrics (not spans/reports) in the
// Prometheus text exposition format, metric names sanitised to
// [a-zA-Z0-9_:].
func (r *Registry) WritePrometheusText(w io.Writer) error {
	snap := r.Snapshot()
	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, snap.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", p, p, snap.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := promName(n)
		hs := snap.Histograms[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", p); err != nil {
			return err
		}
		for _, b := range hs.Buckets {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = fmt.Sprintf("%g", b.UpperBound)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", p, le, b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", p, hs.Sum, p, hs.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName sanitises a metric name for Prometheus exposition.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Default registry and package-level shorthands
// ---------------------------------------------------------------------------

var defaultReg = NewRegistry()

// Default returns the process-wide registry every instrumented package
// records into.
func Default() *Registry { return defaultReg }

// SetEnabled switches the default registry (and with it the whole
// instrumented signal path) on or off.
func SetEnabled(on bool) { defaultReg.SetEnabled(on) }

// Enabled reports whether the default registry records anything.
func Enabled() bool { return defaultReg.Enabled() }

// Inc bumps a counter in the default registry.
func Inc(name Name) { defaultReg.Inc(name) }

// Add bumps a counter in the default registry by n.
func Add(name Name, n int64) { defaultReg.Add(name, n) }

// Set stores a gauge value in the default registry.
func Set(name Name, v float64) { defaultReg.Set(name, v) }

// Observe records a histogram sample in the default registry (duration
// buckets).
func Observe(name Name, v float64) { defaultReg.Observe(name, v) }

// ObserveN records a histogram sample in the default registry with
// explicit bounds on first use.
func ObserveN(name Name, bounds []float64, v float64) { defaultReg.ObserveN(name, bounds, v) }
