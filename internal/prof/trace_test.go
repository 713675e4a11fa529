package prof

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pab/internal/telemetry"
)

func TestBuildTraceValidTraceEventJSON(t *testing.T) {
	reg := telemetry.NewRegistry()
	root := reg.StartSpan("sim_job").Attr("id", "abc")
	reg.RecordSpan(telemetry.SpanRecord{Name: "sim_queue_wait", ParentID: root.ID(),
		Start: time.Now().Add(-10 * time.Millisecond), DurationSeconds: 0.01, Attrs: telemetry.Attrs{{Key: "id", Value: "abc"}}})
	StartIn(reg, StageDecode).Stop(64)
	root.End()

	tf := BuildTrace(reg.Snapshot().Spans)
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", tf.DisplayTimeUnit)
	}
	var meta, complete int
	names := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			names[ev.Name] = true
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("negative ts/dur: %+v", ev)
			}
			if ev.Pid != tracePid || ev.Tid <= 0 {
				t.Fatalf("bad pid/tid: %+v", ev)
			}
			if _, ok := ev.Args["span_id"]; !ok {
				t.Fatalf("X event missing span_id: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta < 2 { // process_name + at least one thread_name
		t.Fatalf("metadata events = %d, want >= 2", meta)
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3", complete)
	}
	for _, want := range []string{"sim_job", "sim_queue_wait", "stage_decode"} {
		if !names[want] {
			t.Fatalf("event %q missing from trace", want)
		}
	}

	// The file must round-trip as plain trace-event JSON.
	b, err := json.Marshal(tf)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("trace does not parse as trace-event JSON: %v", err)
	}
	if len(back.TraceEvents) != len(tf.TraceEvents) {
		t.Fatalf("round trip lost events: %d vs %d", len(back.TraceEvents), len(tf.TraceEvents))
	}
}

func TestBuildTraceGroupsTreeOnOneTrack(t *testing.T) {
	reg := telemetry.NewRegistry()
	root := reg.StartSpan("sim_job")
	reg.RecordSpan(telemetry.SpanRecord{Name: "sim_queue_wait", ParentID: root.ID(),
		Start: time.Now().Add(-5 * time.Millisecond), DurationSeconds: 0.005})
	root.End()

	tf := BuildTrace(reg.Snapshot().Spans)
	tids := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.Name] = ev.Tid
		}
	}
	if tids["sim_job"] != tids["sim_queue_wait"] {
		t.Fatalf("queue-wait and service phases on different tracks: %v", tids)
	}
}

func TestBuildTraceLanesParallelRoots(t *testing.T) {
	reg := telemetry.NewRegistry()
	base := time.Now()
	// Two overlapping trees with the same root name (two scheduler
	// workers), plus a third that starts after the first ended and can
	// reuse its lane.
	reg.RecordSpan(telemetry.SpanRecord{Name: "sim_job", Start: base, DurationSeconds: 0.01})
	reg.RecordSpan(telemetry.SpanRecord{Name: "sim_job", Start: base.Add(2 * time.Millisecond), DurationSeconds: 0.01})
	reg.RecordSpan(telemetry.SpanRecord{Name: "sim_job", Start: base.Add(20 * time.Millisecond), DurationSeconds: 0.005})

	tf := BuildTrace(reg.Snapshot().Spans)
	var labels []string
	tids := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			labels = append(labels, ev.Args["name"].(string))
		case ev.Ph == "X":
			tids[ev.Tid] = true
		}
	}
	if len(labels) != 2 {
		t.Fatalf("thread labels = %v, want exactly 2 lanes", labels)
	}
	if labels[0] != "sim_job" || labels[1] != "sim_job #2" {
		t.Fatalf("lane labels = %v", labels)
	}
	if len(tids) != 2 {
		t.Fatalf("distinct tids = %d, want 2 (third tree reuses lane 1)", len(tids))
	}
}

func TestTraceHandlerMountedOnRegistryHandler(t *testing.T) {
	reg := telemetry.NewRegistry()
	Install(reg)
	reg.StartSpan("stage_x").End()
	h := reg.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace.json", nil))
	if rec.Code != 200 {
		t.Fatalf("/trace.json status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var tf TraceFile
	if err := json.Unmarshal(rec.Body.Bytes(), &tf); err != nil {
		t.Fatalf("/trace.json body does not parse: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" || len(tf.TraceEvents) == 0 {
		t.Fatalf("unexpected trace: %+v", tf)
	}
}

func TestWriteTraceFile(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.StartSpan("stage_y").End()
	path := t.TempDir() + "/trace.json"
	if err := WriteTraceFile(path, reg); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	TraceHandler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/trace.json", nil))
	if rec.Code != 200 {
		t.Fatalf("handler status %d", rec.Code)
	}
}

func TestRuntimePollerFeedsRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := StartRuntimePoller(reg, 100*time.Millisecond)
	defer p.Stop()

	snap := reg.Snapshot() // StartRuntimePoller polls once synchronously
	if snap.Counters[string(telemetry.MProfRuntimePollsTotal)] < 1 {
		t.Fatal("no polls recorded")
	}
	if snap.Gauges[string(telemetry.MRuntimeGoroutines)] <= 0 {
		t.Fatalf("goroutine gauge = %g", snap.Gauges[string(telemetry.MRuntimeGoroutines)])
	}
	if snap.Gauges[string(telemetry.MRuntimeHeapBytes)] <= 0 {
		t.Fatalf("heap gauge = %g", snap.Gauges[string(telemetry.MRuntimeHeapBytes)])
	}
	if snap.Counters[string(telemetry.MRuntimeAllocBytesTotal)] <= 0 {
		t.Fatal("alloc counter not fed")
	}
	p.Stop() // idempotent
}

func TestRuntimePollerDisabledRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.SetEnabled(false)
	p := StartRuntimePoller(reg, 100*time.Millisecond)
	defer p.Stop()
	reg.SetEnabled(true)
	if snap := reg.Snapshot(); len(snap.Gauges) != 0 {
		t.Fatalf("disabled registry got gauges: %v", snap.Gauges)
	}
}
