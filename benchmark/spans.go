package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// procStart anchors every timestamp the benchmark takes.
var procStart = time.Now()

// nowNs is monotonic nanoseconds since process start.
func nowNs() int64 { return time.Since(procStart).Nanoseconds() }

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one request share Req; Parent is the ID of the
// span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	// Track separates timelines within one workload (client, server,
	// sweep workers) so overlapping spans do not stack in the viewer.
	Track int `json:"track,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced repeats pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{} }

// add records a finished span and returns its ID for use as a parent.
func (t *tracer) add(name string, start, end int64, parent, req uint64, track int) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, ID: t.next, Parent: parent, Req: req, Track: track})
	return t.next
}

// reserve hands out an ID before the span's end is known, so children
// can name their parent; finish it with addAs.
func (t *tracer) reserve() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// addAs records a span under an ID from reserve.
func (t *tracer) addAs(id uint64, name string, start, end int64, parent uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, ID: id, Parent: parent})
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent uint64, fn func()) {
	start := nowNs()
	fn()
	t.add(name, start, nowNs(), parent, 0, 0)
}

// selfTimes returns each span name's total self time in ns: duration
// minus the part its child spans cover (children are assumed not to
// overlap each other, which holds for the serial spans recorded here;
// parallel sweep points are clamped at zero).
func selfTimes(spans []span) map[string]int64 {
	covered := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		d := s.End - s.Start - covered[s.ID]
		if d < 0 {
			d = 0
		}
		self[s.Name] += d
	}
	return self
}

// traceProcess is one workload's spans in the exported file.
type traceProcess struct {
	Name  string
	Spans []span
}

// writeChromeSpans renders spans as Chrome trace-event JSON ("X"
// complete events, µs timestamps), one pid per workload, loadable in
// Perfetto or chrome://tracing.
func writeChromeSpans(w io.Writer, procs []traceProcess) error {
	type args struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent,omitempty"`
		Req    uint64 `json:"req,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur,omitempty"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args any     `json:"args,omitempty"`
	}
	if _, err := io.WriteString(w, "{\"traceEvents\": [\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	first := true
	put := func(e event) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(e)
	}
	for pid, p := range procs {
		meta := event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]string{"name": p.Name}}
		if err := put(meta); err != nil {
			return err
		}
		for _, s := range p.Spans {
			e := event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Pid: pid, Tid: s.Track, Args: args{ID: s.ID, Parent: s.Parent, Req: s.Req}}
			if err := put(e); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "]}")
	return err
}
