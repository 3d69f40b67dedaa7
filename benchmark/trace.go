package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share its
// id; parent is the index of the span that caused this one, -1 for a root.
type span struct {
	name       string
	start, end time.Time
	parent     int
	job        int
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced arm runs the same code.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records one span and returns its index, for use as a parent.
func (r *recorder) add(name string, start, end time.Time, parent, job int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name, start, end, parent, job})
	return len(r.spans) - 1
}

// selfSeconds returns, per job, the self time summed by span name: a span's
// duration minus what its direct children cover.
func (r *recorder) selfSeconds() map[int]map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]float64, len(r.spans))
	for i, s := range r.spans {
		d := s.end.Sub(s.start).Seconds()
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	out := make(map[int]map[string]float64)
	for i, s := range r.spans {
		if out[s.job] == nil {
			out[s.job] = make(map[string]float64)
		}
		out[s.job][s.name] += self[i]
	}
	return out
}

// perJob lists, for every recorded job, the self time of the spans match
// accepts (0 where a job has none), so a mean over jobs is well defined.
func perJob(self map[int]map[string]float64, match func(name string) bool) []float64 {
	out := make([]float64, 0, len(self))
	for _, byName := range self {
		sum := 0.0
		for name, s := range byName {
			if match(name) {
				sum += s
			}
		}
		out = append(out, sum)
	}
	return out
}

// named matches one span name.
func named(want string) func(string) bool {
	return func(name string) bool { return name == want }
}

// writeChrome flushes the spans as Chrome trace_event JSON (complete events,
// one track per job), loadable in chrome://tracing or ui.perfetto.dev.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]event, 0, len(r.spans))
	var epoch time.Time
	for _, s := range r.spans {
		if epoch.IsZero() || s.start.Before(epoch) {
			epoch = s.start
		}
	}
	for i, s := range r.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.job,
			Ts:   float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent, "job": s.job},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
