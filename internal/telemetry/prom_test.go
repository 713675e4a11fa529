package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// scrapeAllocBudget and scrapeByteBudget bound one scrape of
// fullRingFixture: the measured 287 allocations and 5,232 B on amd64
// plus about a quarter. A scrape that still copied the span ring would
// allocate about 480 KB.
const (
	scrapeAllocBudget = 360
	scrapeByteBudget  = 6_600
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// promFixture builds a registry with one of everything, deterministic
// enough to compare byte-for-byte.
func promFixture() *Registry {
	r := NewRegistry()
	r.Add("decode.ok.total", 3)
	r.Inc("sync_misses_total")
	r.Set("snr_db", 7.5)
	r.Set("queue.depth", 4)
	r.ObserveN("latency_s", []float64{0.01, 0.1, 1}, 0.05)
	r.ObserveN("latency_s", []float64{0.01, 0.1, 1}, 0.5)
	r.ObserveN("latency_s", []float64{0.01, 0.1, 1}, 2)
	return r
}

// TestPrometheusGolden pins the full exposition format: any change to
// ordering, TYPE lines, bucket rendering or number formatting shows up
// as a diff against testdata/prometheus.golden (regenerate with
// `go test ./internal/telemetry -run Golden -update`).
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := promFixture().WritePrometheusText(&buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/prometheus.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestPrometheusHistogramBuckets asserts the histogram contract
// Prometheus scrapers rely on: `le` buckets are cumulative, end in
// +Inf, and +Inf equals _count.
func TestPrometheusHistogramBuckets(t *testing.T) {
	var buf bytes.Buffer
	if err := promFixture().WritePrometheusText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	re := regexp.MustCompile(`latency_s_bucket\{le="([^"]+)"\} (\d+)`)
	matches := re.FindAllStringSubmatch(out, -1)
	if len(matches) != 4 {
		t.Fatalf("bucket lines = %d, want 4 (3 bounds + +Inf):\n%s", len(matches), out)
	}
	if matches[len(matches)-1][1] != "+Inf" {
		t.Fatalf("last bucket le = %q, want +Inf", matches[len(matches)-1][1])
	}
	prev := int64(-1)
	for _, m := range matches {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n < prev {
			t.Fatalf("buckets not cumulative: %v", matches)
		}
		prev = n
	}
	wantCounts := []string{"0", "1", "2", "3"}
	for i, m := range matches {
		if m[2] != wantCounts[i] {
			t.Fatalf("bucket %d count = %s, want %s", i, m[2], wantCounts[i])
		}
	}
	if !strings.Contains(out, "latency_s_count 3") {
		t.Fatalf("missing _count:\n%s", out)
	}
	if !strings.Contains(out, "latency_s_sum 2.55") {
		t.Fatalf("missing _sum:\n%s", out)
	}
}

// TestPrometheusMonotonicAcrossSnapshots asserts counters and histogram
// counts only grow between successive scrapes of a live registry.
func TestPrometheusMonotonicAcrossSnapshots(t *testing.T) {
	r := promFixture()
	scrape := func() (counter, histCount int64) {
		var buf bytes.Buffer
		if err := r.WritePrometheusText(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "decode_ok_total "); ok {
				counter, _ = strconv.ParseInt(v, 10, 64)
			}
			if v, ok := strings.CutPrefix(line, "latency_s_count "); ok {
				histCount, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		return counter, histCount
	}
	c1, h1 := scrape()
	r.Add("decode.ok.total", 2)
	r.ObserveN("latency_s", []float64{0.01, 0.1, 1}, 0.3)
	c2, h2 := scrape()
	if c2 <= c1 || h2 <= h1 {
		t.Fatalf("counters not monotone: counter %d→%d hist %d→%d", c1, c2, h1, h2)
	}
	if c2 != c1+2 || h2 != h1+1 {
		t.Fatalf("unexpected growth: counter %d→%d hist %d→%d", c1, c2, h1, h2)
	}
}

func TestMetricsContentType(t *testing.T) {
	h := promFixture().Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("/metrics content type = %q", ct)
	}
}

// TestDebugVarsPerRegistry pins the satellite fix: a custom registry's
// Handler publishes its *own* snapshot under a distinct expvar key, so
// its /debug/vars reports that registry rather than the default one.
func TestDebugVarsPerRegistry(t *testing.T) {
	r := NewRegistry()
	r.Inc("custom_registry_probe_total")
	h := r.Handler()
	_ = r.Handler() // second build must not re-publish (expvar panics on dupes)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/vars status %d", rec.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	found := false
	for key, raw := range vars {
		if !strings.HasPrefix(key, "pab_telemetry_") {
			continue
		}
		var snap Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			continue
		}
		if snap.Counters["custom_registry_probe_total"] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("custom registry snapshot not published under its own expvar key")
	}
	// The custom counter must not leak into the default registry's key.
	if raw, ok := vars["pab_telemetry"]; ok {
		var snap Snapshot
		if err := json.Unmarshal(raw, &snap); err == nil {
			if _, leaked := snap.Counters["custom_registry_probe_total"]; leaked {
				t.Fatal("custom counter leaked into the default registry's expvar")
			}
		}
	}
}

// TestPublishExtraInSnapshot covers the extras hook /telemetry.json
// uses for the scheduler's slowest-jobs table.
func TestPublishExtraInSnapshot(t *testing.T) {
	r := NewRegistry()
	r.PublishExtra("answer", func() any { return 42 })
	snap := r.Snapshot()
	if snap.Extra["answer"] != 42 {
		t.Fatalf("extra = %v", snap.Extra)
	}
	r.PublishExtra("answer", nil)
	if snap := r.Snapshot(); len(snap.Extra) != 0 {
		t.Fatalf("nil publish did not remove: %v", snap.Extra)
	}
}

// fullRingFixture is promFixture with a full span ring, a full report
// ring and an extra: everything a /metrics scrape must not copy or run.
func fullRingFixture() *Registry {
	r := promFixture()
	for i := range maxSpanRecords + 100 {
		r.StartSpan([]string{"modulate", "demod", "sync"}[i%3]).Attr("i", i).Attr("stage", "x").End()
	}
	for i := range maxDecodeReports + 10 {
		r.RecordDecode(DecodeReport{BitrateBps: 1000, SlicerSNRdB: float64(i % 20), SyncPeak: 0.9})
	}
	r.PublishExtra("table", func() any { return map[string]int{"rows": 3} })
	return r
}

// refPrometheusText is the exposition as WritePrometheusText wrote it
// when it formatted a whole Snapshot, verbatim but for the writer.
func refPrometheusText(snap Snapshot) string {
	var w strings.Builder
	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := promName(n)
		fmt.Fprintf(&w, "# TYPE %s counter\n%s %d\n", p, p, snap.Counters[n])
	}
	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := promName(n)
		fmt.Fprintf(&w, "# TYPE %s gauge\n%s %g\n", p, p, snap.Gauges[n])
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := promName(n)
		hs := snap.Histograms[n]
		fmt.Fprintf(&w, "# TYPE %s histogram\n", p)
		for _, b := range hs.Buckets {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = fmt.Sprintf("%g", b.UpperBound)
			}
			fmt.Fprintf(&w, "%s_bucket{le=%q} %d\n", p, le, b.Count)
		}
		fmt.Fprintf(&w, "%s_sum %g\n%s_count %d\n", p, hs.Sum, p, hs.Count)
	}
	return w.String()
}

// TestPrometheusTextMatchesSnapshotText requires the scrape of a
// registry with full rings and an extra to be byte for byte the text
// formatted from its whole Snapshot, as the scrape was before it
// stopped taking one.
func TestPrometheusTextMatchesSnapshotText(t *testing.T) {
	r := fullRingFixture()
	var buf bytes.Buffer
	if err := r.WritePrometheusText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := refPrometheusText(r.Snapshot()); buf.String() != want {
		t.Errorf("scrape differs from the snapshot's text:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), want)
	}
}

// TestPrometheusScrapeAllocs bounds what one /metrics scrape of a
// registry with full rings allocates, and requires that it run no
// PublishExtra callback.
func TestPrometheusScrapeAllocs(t *testing.T) {
	r := fullRingFixture()
	calls := 0
	r.PublishExtra("calls", func() any { calls++; return calls })
	scrape := func() {
		if err := r.WritePrometheusText(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	scrape()
	if calls != 0 {
		t.Fatalf("a scrape ran a PublishExtra callback %d times", calls)
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the bounds hold for the uninstrumented build")
	}
	allocs := testing.AllocsPerRun(20, scrape)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scrape()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%.0f allocs, %d bytes per scrape", allocs, bytes)
	if allocs > scrapeAllocBudget || bytes > scrapeByteBudget {
		t.Errorf("%.0f allocations and %d bytes per scrape, want ≤ %d and ≤ %d", allocs, bytes, scrapeAllocBudget, scrapeByteBudget)
	}
}
