package sim

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"pab/internal/prof"
	"pab/internal/scenario"
	"pab/internal/telemetry"
)

// sleepRunner sleeps seed milliseconds, making job durations
// controllable from the spec.
func sleepRunner(ctx context.Context, sp scenario.Spec) (json.RawMessage, error) {
	select {
	case <-time.After(time.Duration(sp.Seed) * time.Millisecond):
		return json.RawMessage(`{"ok":true}`), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestJobSpansSplitQueueWaitAndService pins the dequeue split: every
// executed job files a sim_job span (service time, from dequeue) with a
// sim_queue_wait child covering submit→dequeue, and both phase
// histograms fill under their typed names.
func TestJobSpansSplitQueueWaitAndService(t *testing.T) {
	s, reg := newTestScheduler(t, Config{Workers: 1}, instantRunner)
	for seed := int64(1); seed <= 3; seed++ {
		v, err := s.Submit(chaosSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, v.ID)
	}

	snap := reg.Snapshot()
	jobs := map[uint64]bool{}
	var waits int
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "sim_job":
			jobs[sp.ID] = true
			set := map[string]bool{}
			for _, a := range sp.Attrs {
				set[a.Key] = a.Value != nil
			}
			if !set["id"] || !set["kind"] {
				t.Fatalf("sim_job span missing id/kind attrs: %+v", sp)
			}
		}
	}
	for _, sp := range snap.Spans {
		if sp.Name != "sim_queue_wait" {
			continue
		}
		waits++
		if !jobs[sp.ParentID] {
			t.Fatalf("sim_queue_wait parent %d is not a sim_job span", sp.ParentID)
		}
		if sp.DurationSeconds < 0 {
			t.Fatalf("negative queue wait: %+v", sp)
		}
	}
	if len(jobs) != 3 || waits != 3 {
		t.Fatalf("jobs=%d queue-waits=%d, want 3/3", len(jobs), waits)
	}
	if h := snap.Histograms[string(telemetry.MSimJobQueueWaitSeconds)]; h.Count != 3 {
		t.Fatalf("queue-wait histogram count = %d, want 3", h.Count)
	}
	if h := snap.Histograms[string(telemetry.MSimJobDurationSeconds)]; h.Count != 3 {
		t.Fatalf("duration histogram count = %d, want 3", h.Count)
	}
}

// TestSchedulerTracePerfetto is the trace-export acceptance: spans from
// a scheduler run render as trace-event JSON with the queue-wait and
// service phases of one job on the same track.
func TestSchedulerTracePerfetto(t *testing.T) {
	s, reg := newTestScheduler(t, Config{Workers: 2}, instantRunner)
	var last string
	for seed := int64(1); seed <= 4; seed++ {
		v, err := s.Submit(chaosSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		last = v.ID
	}
	waitTerminal(t, s, last)
	for seed := int64(1); seed <= 4; seed++ {
		id, _ := chaosSpec(seed).Hash()
		waitTerminal(t, s, id)
	}

	tf := prof.BuildTrace(reg.Snapshot().Spans)
	b, err := json.Marshal(tf)
	if err != nil {
		t.Fatal(err)
	}
	var back prof.TraceFile
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("scheduler trace does not parse: %v", err)
	}
	jobTid := map[any]int{} // span args id → tid
	for _, ev := range back.TraceEvents {
		if ev.Ph == "X" && ev.Name == "sim_job" {
			jobTid[ev.Args["id"]] = ev.Tid
		}
	}
	if len(jobTid) != 4 {
		t.Fatalf("sim_job events for %d jobs, want 4", len(jobTid))
	}
	matched := 0
	for _, ev := range back.TraceEvents {
		if ev.Ph == "X" && ev.Name == "sim_queue_wait" {
			want, ok := jobTid[ev.Args["id"]]
			if !ok {
				t.Fatalf("queue-wait for unknown job: %+v", ev)
			}
			if ev.Tid != want {
				t.Fatalf("queue-wait on tid %d, its job on tid %d", ev.Tid, want)
			}
			matched++
		}
	}
	if matched != 4 {
		t.Fatalf("queue-wait events = %d, want 4", matched)
	}
}

// TestSlowestJobs pins the worst-N table: longest-running jobs first,
// identified by spec hash, and surfaced through the registry snapshot
// (and with it /telemetry.json).
func TestSlowestJobs(t *testing.T) {
	s, reg := newTestScheduler(t, Config{Workers: 1}, sleepRunner)
	seeds := []int64{1, 30, 10} // sleep milliseconds
	for _, seed := range seeds {
		v, err := s.Submit(chaosSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, v.ID)
	}

	slow := s.SlowestJobs()
	if len(slow) != 3 {
		t.Fatalf("slowest table has %d entries, want 3", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].RunS > slow[i-1].RunS {
			t.Fatalf("table not sorted by run time: %+v", slow)
		}
	}
	wantID, _ := chaosSpec(30).Hash()
	if slow[0].ID != wantID {
		t.Fatalf("slowest job = %s (%.3fs), want the 30ms job %s", slow[0].ID, slow[0].RunS, wantID)
	}

	snap := reg.Snapshot()
	views, ok := snap.Extra["sim_slowest_jobs"].([]JobView)
	if !ok || len(views) != 3 {
		t.Fatalf("snapshot extra sim_slowest_jobs = %#v", snap.Extra["sim_slowest_jobs"])
	}
}

// TestSlowestJobsBounded keeps the table at its cap under churn.
func TestSlowestJobsBounded(t *testing.T) {
	s, _ := newTestScheduler(t, Config{Workers: 4, QueueDepth: 64}, instantRunner)
	for seed := int64(1); seed <= int64(slowestJobsKept)+8; seed++ {
		v, err := s.Submit(chaosSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, v.ID)
	}
	if got := len(s.SlowestJobs()); got != slowestJobsKept {
		t.Fatalf("table size %d, want %d", got, slowestJobsKept)
	}
}
