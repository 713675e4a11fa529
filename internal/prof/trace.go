package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"pab/internal/telemetry"
)

// TraceEvent is one Chrome trace-event (the Trace Event Format the
// chrome://tracing and Perfetto UIs load). Complete events carry
// ph="X" with ts/dur in microseconds; metadata events (process and
// thread names) carry ph="M".
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the JSON-object form of the trace-event format.
type TraceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
}

// tracePid is the single synthetic process id all events share.
const tracePid = 1

// BuildTrace converts finished span records (oldest first, as
// Snapshot delivers them) into a Perfetto-loadable trace. Track
// layout: every span tree renders on one track named after its root
// span; concurrent trees with the same root name (parallel scheduler
// workers) fan out over numbered lanes, so queue-wait and service
// phases of one job stay adjacent while eight workers' jobs stack
// into eight readable rows.
func BuildTrace(spans []telemetry.SpanRecord) TraceFile {
	tf := TraceFile{DisplayTimeUnit: "ms", TraceEvents: []TraceEvent{
		{Name: "process_name", Ph: "M", Pid: tracePid, Args: map[string]any{"name": "pab"}},
	}}
	if len(spans) == 0 {
		return tf
	}

	// Root resolution: follow parent links as far as the ring still
	// holds them (old parents age out of the ring; orphans root their
	// own subtree).
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	rootOf := make([]uint64, len(spans))
	var resolve func(i int) uint64
	resolve = func(i int) uint64 {
		if rootOf[i] != 0 {
			return rootOf[i]
		}
		s := spans[i]
		root := s.ID
		if s.ParentID != 0 {
			if pi, ok := byID[s.ParentID]; ok {
				root = resolve(pi)
			}
		}
		rootOf[i] = root
		return root
	}
	for i := range spans {
		resolve(i)
	}

	// Tree extents (for lane packing): [start, end] over every member.
	type extent struct {
		name       string
		start, end time.Time
	}
	extents := make(map[uint64]*extent)
	for i, s := range spans {
		root := rootOf[i]
		end := s.Start.Add(time.Duration(s.DurationSeconds * float64(time.Second)))
		e, ok := extents[root]
		if !ok {
			extents[root] = &extent{name: s.Name, start: s.Start, end: end}
			continue
		}
		if s.Start.Before(e.start) {
			e.start = s.Start
		}
		if end.After(e.end) {
			e.end = end
		}
		if s.ID == root {
			e.name = s.Name
		}
	}

	// Greedy lane assignment per root name: a tree takes the lowest
	// lane whose previous occupant ended before it starts.
	rootIDs := make([]uint64, 0, len(extents))
	for id := range extents {
		rootIDs = append(rootIDs, id)
	}
	sort.Slice(rootIDs, func(a, b int) bool {
		ea, eb := extents[rootIDs[a]], extents[rootIDs[b]]
		if !ea.start.Equal(eb.start) {
			return ea.start.Before(eb.start)
		}
		return rootIDs[a] < rootIDs[b]
	})
	type lane struct{ end time.Time }
	lanes := make(map[string][]*lane) // root name → lanes
	tids := make(map[uint64]int)      // root id → tid
	tidSeq := 0
	tidOf := make(map[string]map[int]int) // (name, lane index) → tid
	for _, id := range rootIDs {
		e := extents[id]
		ls := lanes[e.name]
		slot := -1
		for i, l := range ls {
			if !l.end.After(e.start) {
				slot = i
				break
			}
		}
		if slot < 0 {
			ls = append(ls, &lane{})
			lanes[e.name] = ls
			slot = len(ls) - 1
		}
		ls[slot].end = e.end
		if tidOf[e.name] == nil {
			tidOf[e.name] = make(map[int]int)
		}
		tid, ok := tidOf[e.name][slot]
		if !ok {
			tidSeq++
			tid = tidSeq
			tidOf[e.name][slot] = tid
			label := e.name
			if slot > 0 {
				label = fmt.Sprintf("%s #%d", e.name, slot+1)
			}
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: "thread_name", Ph: "M", Pid: tracePid, Tid: tid,
				Args: map[string]any{"name": label},
			})
		}
		tids[id] = tid
	}

	origin := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}
	events := make([]TraceEvent, 0, len(spans))
	for i, s := range spans {
		args := make(map[string]any, len(s.Attrs)+4)
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		if s.Samples != 0 {
			args["samples"] = s.Samples
		}
		if s.AllocBytes != 0 {
			args["alloc_bytes"] = s.AllocBytes
		}
		args["span_id"] = s.ID
		if s.ParentID != 0 {
			args["parent_id"] = s.ParentID
		}
		events = append(events, TraceEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(origin)) / float64(time.Microsecond),
			Dur:  s.DurationSeconds * 1e6,
			Pid:  tracePid,
			Tid:  tids[rootOf[i]],
			Args: args,
		})
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Ts < events[b].Ts })
	tf.TraceEvents = append(tf.TraceEvents, events...)
	return tf
}

// WriteTrace renders the registry's span ring as trace-event JSON.
func WriteTrace(w io.Writer, reg *telemetry.Registry) error {
	tf := BuildTrace(reg.Snapshot().Spans)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tf)
}

// WriteTraceFile writes the registry's trace to path (the -trace-out
// CLI flag).
func WriteTraceFile(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prof: trace: %w", err)
	}
	if err := WriteTrace(f, reg); err != nil {
		f.Close()
		return fmt.Errorf("prof: trace: %w", err)
	}
	return f.Close()
}

// TraceHandler serves the registry's trace as
// application/json — load the response straight into
// https://ui.perfetto.dev.
func TraceHandler(reg *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		if err := WriteTrace(w, reg); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Install mounts the profiler's routes on the registry's debug
// handler: /trace.json. Idempotent — re-mounting replaces the route.
func Install(reg *telemetry.Registry) {
	reg.Handle("/trace.json", TraceHandler(reg))
}
