package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries_total")
	c.Add(1)
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("queries_total") != c {
		t.Fatal("Counter not idempotent per name")
	}

	g := r.Gauge("snr_db")
	g.Set(12.5)
	g.Set(-3.25)
	if got := g.Value(); got != -3.25 {
		t.Fatalf("gauge = %g, want -3.25", got)
	}

	h := r.Histogram("latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500, 10} { // 10 lands in the ≤10 bucket
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	if got := h.Count(); got != 5 {
		t.Fatalf("hist count = %d, want 5", got)
	}
	if got, want := h.Sum(), 565.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("hist sum = %g, want %g", got, want)
	}
	hs := r.Snapshot().Histograms["latency"]
	wantCum := []int64{1, 3, 4, 5} // ≤1, ≤10, ≤100, +Inf
	if len(hs.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(hs.Buckets), len(wantCum))
	}
	for i, b := range hs.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket[%d] (le %g) = %d, want %d", i, b.UpperBound, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(hs.Buckets[3].UpperBound, 1) {
		t.Error("last bucket bound should be +Inf")
	}
	if hs.Count != 5 || math.Abs(hs.Sum-565.5) > 1e-9 {
		t.Errorf("count %d sum %g, want 5 and 565.5", hs.Count, hs.Sum)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Inc("n")
				r.Observe("d", float64(i))
				r.Set("g", float64(i))
				sp := r.StartSpan("op")
				sp.Child("inner").End()
				sp.End()
				r.RecordDecode(DecodeReport{SlicerSNRdB: float64(i)})
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("d", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	snap := r.Snapshot()
	if len(snap.Spans) != maxSpanRecords {
		t.Fatalf("span ring holds %d, want full %d", len(snap.Spans), maxSpanRecords)
	}
	if len(snap.DecodeReports) != maxDecodeReports {
		t.Fatalf("report ring holds %d, want full %d", len(snap.DecodeReports), maxDecodeReports)
	}
}

func TestSpanNestingAndAttrs(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("exchange")
	child := root.Child("demod").Attr("carrier_hz", 15000.0)
	time.Sleep(time.Millisecond)
	if d := child.End(); d <= 0 {
		t.Fatal("child duration should be positive")
	}
	if d := child.End(); d != 0 {
		t.Fatal("double End should be a no-op")
	}
	root.End()

	spans := r.Snapshot().Spans
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Ring is oldest-first: child ended before root.
	if spans[0].Name != "demod" || spans[1].Name != "exchange" {
		t.Fatalf("span order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].ParentID != spans[1].ID {
		t.Fatalf("child parent = %d, want root id %d", spans[0].ParentID, spans[1].ID)
	}
	if spans[1].ParentID != 0 {
		t.Fatal("root should have no parent")
	}
	if got := spans[0].Attrs["carrier_hz"]; got != 15000.0 {
		t.Fatalf("attr = %v, want 15000", got)
	}
	// End also feeds the duration histogram.
	if r.Histogram("span_demod_seconds", nil).Count() != 1 {
		t.Fatal("span duration histogram not fed")
	}
}

func TestDisabledRegistryIsNoOp(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(false)
	r.Inc("n")
	r.Set("g", 1)
	r.Observe("d", 1)
	r.RecordDecode(DecodeReport{})
	if sp := r.StartSpan("op"); sp != nil {
		t.Fatal("StartSpan should return nil when disabled")
	}
	var nilSpan *Span
	nilSpan.Attr("k", "v") // must not panic
	nilSpan.Child("x").End()
	snap := r.Snapshot()
	if snap.Counters["n"] != 0 || len(snap.Spans) != 0 || len(snap.DecodeReports) != 0 {
		t.Fatalf("disabled registry recorded data: %+v", snap)
	}
	r.SetEnabled(true)
	r.Inc("n")
	if r.Counter("n").Value() != 1 {
		t.Fatal("re-enabled registry should record")
	}
}

func TestDecodeReportRingAndRetries(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxDecodeReports+10; i++ {
		r.RecordDecode(DecodeReport{SyncIndex: i})
	}
	reps := r.Snapshot().DecodeReports
	if len(reps) != maxDecodeReports {
		t.Fatalf("ring holds %d, want %d", len(reps), maxDecodeReports)
	}
	if reps[0].SyncIndex != 10 || reps[len(reps)-1].SyncIndex != maxDecodeReports+9 {
		t.Fatalf("ring order wrong: first %d last %d", reps[0].SyncIndex, reps[len(reps)-1].SyncIndex)
	}
	r.SetLastDecodeRetries(3)
	reps = r.Snapshot().DecodeReports
	if got := reps[len(reps)-1].Retries; got != 3 {
		t.Fatalf("last retries = %d, want 3", got)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Inc("core_link_queries_total")
	r.Set("mac_inventory_last_q", 4)
	r.Observe("span_exchange_seconds", 0.25)
	r.StartSpan("exchange").End()
	r.RecordDecode(DecodeReport{SlicerSNRdB: 9.5, SyncPeak: 0.87, Decoded: true})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["core_link_queries_total"] != 1 {
		t.Fatal("counter lost in JSON round trip")
	}
	if len(snap.DecodeReports) != 1 || snap.DecodeReports[0].SlicerSNRdB != 9.5 || snap.DecodeReports[0].SyncPeak != 0.87 {
		t.Fatalf("decode report lost: %+v", snap.DecodeReports)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "exchange" {
		t.Fatalf("span lost: %+v", snap.Spans)
	}
}

func TestWritePrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Inc("mac.queries.total") // dots must be sanitised
	r.Set("snr_db", 7.5)
	r.ObserveN("taps", []float64{1, 10}, 3)

	var buf bytes.Buffer
	if err := r.WritePrometheusText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mac_queries_total counter",
		"mac_queries_total 1",
		"# TYPE snr_db gauge",
		"snr_db 7.5",
		"# TYPE taps histogram",
		`taps_bucket{le="1"} 0`,
		`taps_bucket{le="10"} 1`,
		`taps_bucket{le="+Inf"} 1`,
		"taps_sum 3",
		"taps_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"ok_name":       "ok_name",
		"with.dots-etc": "with_dots_etc",
		"9lead":         "_lead",
		"a9tail":        "a9tail",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Inc("hits")
	h := r.Handler()

	for path, wantFrag := range map[string]string{
		"/metrics":        "hits 1",
		"/telemetry.json": `"hits": 1`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), wantFrag) {
			t.Errorf("%s missing %q:\n%s", path, wantFrag, rec.Body.String())
		}
	}
	// pprof forwards through DefaultServeMux.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/cmdline: status %d", rec.Code)
	}
}

func TestResetClearsEverything(t *testing.T) {
	r := NewRegistry()
	r.Inc("n")
	r.StartSpan("s").End()
	r.RecordDecode(DecodeReport{})
	r.Reset()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 || len(snap.DecodeReports) != 0 {
		t.Fatalf("Reset left data behind: %+v", snap)
	}
	if !r.Enabled() {
		t.Fatal("Reset should not disable the registry")
	}
}

func TestDefaultRegistryShorthands(t *testing.T) {
	Default().Reset()
	Inc("x")
	Add("x", 2)
	Set("g", 1.5)
	Observe("h", 0.1)
	ObserveN("h2", DefCountBuckets, 4)
	RecordDecode(DecodeReport{})
	sp := StartSpan("root")
	sp.End()
	snap := Default().Snapshot()
	if snap.Counters["x"] != 3 || snap.Gauges["g"] != 1.5 {
		t.Fatalf("default registry shorthands broken: %+v", snap.Counters)
	}
	if !Enabled() {
		t.Fatal("default registry should be enabled")
	}
	Default().Reset()
}
