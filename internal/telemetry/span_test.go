package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

// goldenSpans files three spans whose attributes cover int, float and
// string values, a key that needs HTML escaping, attribute keys attached
// out of order and a repeated key, then fixes the wall-clock fields so
// the encoding is deterministic.
func goldenSpans() []SpanRecord {
	r := NewRegistry()
	root := r.StartSpan("exchange").Attr("dest", 3).Attr("carrier_hz", 15000.25).Attr("kind", "link <a&b>")
	child := root.Child("demod").Attr("samples", 4096).Attr("cfo_hz", -0.5).Attr("samples", 8192)
	child.Attr("<tag>", "x")
	child.End()
	root.End()
	r.StartSpan("idle").End()
	spans := r.Snapshot().Spans
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	for i, d := range []float64{0.25, 0.5, 0.125} {
		spans[i].Start = start.Add(time.Duration(i) * time.Millisecond)
		spans[i].DurationSeconds = d
	}
	return spans
}

// TestSpanAttrsJSONGolden pins the JSON of span records with
// attributes. testdata/spans.golden was written while attributes were a
// map[string]any, so Attrs must encode exactly as that map did
// (regenerate with `go test ./internal/telemetry -run Golden -update`).
func TestSpanAttrsJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(goldenSpans()); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/spans.golden"
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("span JSON drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestSnapshotAttrsRoundTrip decodes a snapshot with span attributes and
// encodes it again: the attributes come back sorted by key, with the
// last value of a repeated key, and the bytes are unchanged.
func TestSnapshotAttrsRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("exchange").Attr("dest", 3).Attr("carrier_hz", 15000.25).Attr("dest", 4).End()
	r.RecordSpan(SpanRecord{Name: "sim_queue_wait", DurationSeconds: 0.5,
		Attrs: Attrs{{Key: "id", Value: "abc"}, {Key: "b", Value: true}}})
	r.RecordSpan(SpanRecord{Name: "bare"})
	first, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(first, &snap); err != nil {
		t.Fatal(err)
	}
	want := []Attrs{
		{{Key: "carrier_hz", Value: 15000.25}, {Key: "dest", Value: 4.0}},
		{{Key: "b", Value: true}, {Key: "id", Value: "abc"}},
		nil,
	}
	if len(snap.Spans) != len(want) {
		t.Fatalf("%d spans after the round trip, want %d", len(snap.Spans), len(want))
	}
	for i, sp := range snap.Spans {
		if !slices.Equal(sp.Attrs, want[i]) {
			t.Errorf("span %q attrs = %v, want %v", sp.Name, sp.Attrs, want[i])
		}
	}
	again, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatalf("round trip changed the snapshot:\n%s\n%s", first, again)
	}
}

// TestAttrAfterEndIsNoOp: a span's record is filed at End, so a later
// Attr must neither change it nor race a concurrent Snapshot encoding
// it (run under -race).
func TestAttrAfterEndIsNoOp(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("op").Attr("k", 1)
	sp.End()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			sp.Attr("k", i).Attr("late", i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			if _, err := json.Marshal(r.Snapshot().Spans); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := r.Snapshot().Spans[0].Attrs; !slices.Equal(got, Attrs{{Key: "k", Value: 1}}) {
		t.Fatalf("filed attrs = %v, want only k=1", got)
	}
}

// TestMetricCreationDuringReads creates new metric and span names while
// other goroutines update existing ones, which read the copy-on-write
// maps without a lock (run under -race).
func TestMetricCreationDuringReads(t *testing.T) {
	r := NewRegistry()
	const readers, perReader, created = 4, 2000, 200
	r.Inc("existing_total")
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				r.Inc("existing_total")
				r.Observe("existing_seconds", 0.5)
				r.Set("existing_level", float64(i))
				r.StartSpan("existing").End()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < created; i++ {
			r.Inc(Name(fmt.Sprintf("new_%d_total", i)))
			r.ObserveN(Name(fmt.Sprintf("new_%d_bytes", i)), DefBytesBuckets, float64(i))
			r.StartSpan(fmt.Sprintf("new_%d", i)).End()
		}
	}()
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counters["existing_total"]; got != 1+readers*perReader {
		t.Fatalf("existing counter = %d, want %d", got, 1+readers*perReader)
	}
	for _, name := range []string{"existing_seconds", "span_existing_seconds"} {
		if got := snap.Histograms[name].Count; got != readers*perReader {
			t.Fatalf("%s count = %d, want %d", name, got, readers*perReader)
		}
	}
	if len(snap.Counters) != 1+created || len(snap.Histograms) != 2+2*created {
		t.Fatalf("%d counters and %d histograms, want %d and %d",
			len(snap.Counters), len(snap.Histograms), 1+created, 2+2*created)
	}
	for i := 0; i < created; i++ {
		if snap.Counters[fmt.Sprintf("new_%d_total", i)] != 1 ||
			snap.Histograms[fmt.Sprintf("new_%d_bytes", i)].Count != 1 ||
			snap.Histograms[fmt.Sprintf("span_new_%d_seconds", i)].Count != 1 {
			t.Fatalf("new name %d lost an update", i)
		}
	}
}

// TestMetricUpdateAllocs: Inc, Add, Set, Observe and ObserveN on an
// existing metric allocate nothing.
func TestMetricUpdateAllocs(t *testing.T) {
	r := NewRegistry()
	update := func() {
		r.Inc("jobs_total")
		r.Add("jobs_total", 3)
		r.Set("queue_depth", 2)
		r.Observe("wait_seconds", 0.01)
		r.ObserveN("taps", DefCountBuckets, 4)
	}
	update()
	if n := testing.AllocsPerRun(1000, update); n != 0 {
		t.Fatalf("%v allocations per update of existing metrics, want 0", n)
	}
}

// spanAllocBudget is the measured allocation count of a span with two
// small-integer attributes: the Span, and its attribute slice grown to
// one and then two entries.
const spanAllocBudget = 3

// TestSpanAllocs holds StartSpan, two Attr calls and End to
// spanAllocBudget allocations.
func TestSpanAllocs(t *testing.T) {
	r := NewRegistry()
	span := func() { r.StartSpan("op").Attr("a", 1).Attr("b", 2).End() }
	span()
	if n := testing.AllocsPerRun(1000, span); n > spanAllocBudget {
		t.Fatalf("%v allocations per span, budget %d", n, spanAllocBudget)
	}
}

// BenchmarkRegistryParallel runs the per-event telemetry of a
// scheduler's workers on one registry from every P: a counter, a
// histogram and a two-attribute span.
func BenchmarkRegistryParallel(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Inc("jobs_total")
			r.Observe("wait_seconds", 0.01)
			r.StartSpan("job").Attr("a", 1).Attr("b", 2).End()
		}
	})
}
