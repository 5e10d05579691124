package obs

import (
	"strings"
	"testing"
)

func TestRingCapAndTruncation(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{T: int64(i), Task: uint64(i), Kind: Arrive})
	}
	if r.Len() != 4 {
		t.Fatalf("len %d, want 4", r.Len())
	}
	if !r.Truncated() || r.Discarded() != 6 {
		t.Fatalf("truncated=%v discarded=%d, want true/6", r.Truncated(), r.Discarded())
	}
	// Prefix semantics: the four kept events are the first four.
	for i, e := range r.Events() {
		if e.Task != uint64(i) {
			t.Fatalf("event %d is task %d, want %d (prefix, not suffix)", i, e.Task, i)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Truncated() {
		t.Fatal("reset did not clear")
	}
	r.Emit(Event{T: 99})
	if r.Len() != 1 {
		t.Fatal("ring unusable after reset")
	}
}

func TestRingZeroValueAndZeroAlloc(t *testing.T) {
	var r Ring
	r.Emit(Event{T: 1})
	if r.Len() != 1 {
		t.Fatal("zero-value ring did not record")
	}
	r2 := NewRing(1024)
	allocs := testing.AllocsPerRun(100, func() {
		r2.Reset()
		for i := 0; i < 100; i++ {
			r2.Emit(Event{T: int64(i), Task: uint64(i), Kind: QuantumStart})
		}
	})
	if allocs != 0 {
		t.Fatalf("Emit allocated %.1f times per run, want 0", allocs)
	}
}

// lifecycle returns a minimal valid two-quantum task timeline.
func lifecycle(task uint64, core int32, t0 int64) []Event {
	return []Event{
		{T: t0, Task: task, Core: CoreLoadgen, Kind: Arrive},
		{T: t0 + 10, Task: task, Core: core, Kind: Dispatch},
		{T: t0 + 20, Task: task, Core: core, Kind: QuantumStart},
		{T: t0 + 40, Task: task, Core: core, Kind: QuantumEnd},
		{T: t0 + 40, Task: task, Core: core, Kind: ProbeYield},
		{T: t0 + 50, Task: task, Core: core, Kind: QuantumStart},
		{T: t0 + 70, Task: task, Core: core, Kind: QuantumEnd},
		{T: t0 + 70, Task: task, Core: core, Kind: Finish},
	}
}

func TestValidateAcceptsLifecycle(t *testing.T) {
	events := append(lifecycle(1, 0, 0), lifecycle(2, 1, 5)...)
	SortByTime(events)
	if err := Validate(events); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}
	if err := Conserved(events); err != nil {
		t.Fatalf("conserved timeline rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		want   string // substring of the error
	}{
		{"no arrive", []Event{{T: 0, Task: 7, Kind: Dispatch}}, "task 7 begins with dispatch"},
		{"double arrive", []Event{{T: 0, Task: 7, Kind: Arrive}, {T: 1, Task: 7, Kind: Arrive}}, "arrived twice"},
		{"backwards", []Event{{T: 5, Task: 7, Kind: Arrive}, {T: 1, Task: 7, Kind: Dispatch}}, "time went backwards"},
		{"qend without qstart", []Event{{T: 0, Task: 7, Kind: Arrive}, {T: 1, Task: 7, Kind: Dispatch}, {T: 2, Task: 7, Kind: QuantumEnd}}, "quantum ended after"},
		{"drop after dispatch", []Event{{T: 0, Task: 7, Kind: Arrive}, {T: 1, Task: 7, Kind: Dispatch}, {T: 2, Task: 7, Kind: Drop}}, "dropped after"},
		{"overlapping quanta on core", func() []Event {
			a := lifecycle(1, 0, 0)[:3] // task 1 has an open quantum on core 0
			b := []Event{
				{T: 21, Task: 2, Kind: Arrive},
				{T: 22, Task: 2, Core: 0, Kind: Dispatch},
				{T: 23, Task: 2, Core: 0, Kind: QuantumStart},
			}
			return append(a, b...)
		}(), "while task 1's quantum is open"},
		{"finish late", []Event{
			{T: 0, Task: 7, Kind: Arrive}, {T: 1, Task: 7, Kind: Dispatch},
			{T: 2, Task: 7, Kind: QuantumStart}, {T: 3, Task: 7, Kind: QuantumEnd},
			{T: 4, Task: 7, Kind: Finish},
		}, "finished at 4ns but its last quantum ended at 3ns"},
		{"event after terminal", []Event{
			{T: 0, Task: 7, Kind: Arrive}, {T: 1, Task: 7, Kind: Drop}, {T: 2, Task: 7, Kind: Dispatch},
		}, "after its terminal event"},
	}
	for _, tc := range cases {
		err := Validate(tc.events)
		if err == nil {
			t.Errorf("%s: invalid timeline accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateAllowsClientViewFinish(t *testing.T) {
	events := []Event{
		{T: 0, Task: 1, Core: CoreLoadgen, Kind: Arrive},
		{T: 100, Task: 1, Core: CoreLoadgen, Kind: Finish},
	}
	if err := Validate(events); err != nil {
		t.Fatalf("client-view finish rejected: %v", err)
	}
}

func TestConservedCatchesLostTask(t *testing.T) {
	events := lifecycle(1, 0, 0)
	events = append(events, Event{T: 200, Task: 9, Core: CoreLoadgen, Kind: Arrive},
		Event{T: 210, Task: 9, Core: 0, Kind: Dispatch})
	if err := Conserved(events); err == nil {
		t.Fatal("lost task not reported")
	} else if !strings.Contains(err.Error(), "task 9") || !strings.Contains(err.Error(), "dispatch") {
		t.Fatalf("error %q should name task 9 and its last kind", err)
	}
}

// TestConservedFirstViolationDeterministic is the run-twice regression
// test for the map-order bug simvet's maporder analyzer flagged here:
// with several non-terminal tasks, Conserved used to range over its
// task map and name a different violating task on every run. The
// contract is now first-by-timeline-appearance.
func TestConservedFirstViolationDeterministic(t *testing.T) {
	var events []Event
	// Ten violating tasks; task 100 arrives first, so it must be the one
	// reported, every run.
	for i := 0; i < 10; i++ {
		events = append(events, Event{T: int64(i), Task: uint64(100 + i), Core: CoreLoadgen, Kind: Arrive})
	}
	first := Conserved(events)
	if first == nil {
		t.Fatal("non-terminal tasks not reported")
	}
	if !strings.Contains(first.Error(), "task 100") {
		t.Fatalf("error %q should name task 100, the earliest violator", first)
	}
	for i := 0; i < 20; i++ {
		again := Conserved(events)
		if again == nil || again.Error() != first.Error() {
			t.Fatalf("run %d: verdict changed: first %q, again %v", i, first, again)
		}
	}
}

func TestSummarize(t *testing.T) {
	events := append(lifecycle(1, 0, 0), lifecycle(2, 1, 5)...)
	events = append(events,
		Event{T: 80, Task: 3, Core: CoreLoadgen, Kind: Arrive},
		Event{T: 81, Task: 3, Core: CoreDispatcher, Kind: Drop})
	SortByTime(events)
	s := Summarize("test", events)
	if s.Cores != 2 {
		t.Fatalf("cores %d, want 2", s.Cores)
	}
	if s.Tasks != 3 || s.Finished != 2 || s.Dropped != 1 {
		t.Fatalf("tasks/finished/dropped %d/%d/%d, want 3/2/1", s.Tasks, s.Finished, s.Dropped)
	}
	if s.Preemptions != 2 {
		t.Fatalf("preemptions %d, want 2", s.Preemptions)
	}
	// Each task executes two 20ns quanta on its core.
	if s.CoreBusy[0] != 40 || s.CoreBusy[1] != 40 {
		t.Fatalf("core busy %v, want [40 40]", s.CoreBusy)
	}
	// Sojourn is 70ns for both finished tasks.
	if got := s.Sojourn.Quantile(0.5); got != 70 {
		t.Fatalf("p50 sojourn %v, want 70", got)
	}
	var sb strings.Builder
	s.Format(&sb)
	for _, want := range []string{"2 cores", "3 tasks", "finish=2", "drop=1"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary %q missing %q", sb.String(), want)
		}
	}
}

func TestWindows(t *testing.T) {
	// One task runs a 30ns quantum spanning three 20ns windows:
	// [20,40) busy 20 in window 1, [40,50) busy 10 in window 2.
	events := []Event{
		{T: 0, Task: 1, Core: CoreLoadgen, Kind: Arrive},
		{T: 10, Task: 1, Core: 0, Kind: Dispatch},
		{T: 20, Task: 1, Core: 0, Kind: QuantumStart},
		{T: 50, Task: 1, Core: 0, Kind: QuantumEnd},
		{T: 50, Task: 1, Core: 0, Kind: Finish},
	}
	wins := Windows(events, 20)
	if len(wins) != 3 {
		t.Fatalf("%d windows, want 3", len(wins))
	}
	if wins[0].Busy != 0 || wins[1].Busy != 1.0 || wins[2].Busy != 0.5 {
		t.Fatalf("busy %v %v %v, want 0 1 0.5", wins[0].Busy, wins[1].Busy, wins[2].Busy)
	}
	if wins[0].Occupancy != 1 || wins[2].Occupancy != 0 {
		t.Fatalf("occupancy %d,%d, want 1,0", wins[0].Occupancy, wins[2].Occupancy)
	}
	if wins[2].Finishes != 1 || wins[2].P50 != 50 {
		t.Fatalf("window 2: finishes=%d p50=%d, want 1, 50", wins[2].Finishes, wins[2].P50)
	}
	var sb strings.Builder
	if err := WriteWindowsTSV(&sb, wins); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 4 {
		t.Fatalf("TSV has %d lines, want header + 3", lines)
	}
}

func TestDiffNamesBothSystems(t *testing.T) {
	a := Summarize("alpha", lifecycle(1, 0, 0))
	b := Summarize("beta", lifecycle(1, 0, 0))
	var sb strings.Builder
	Diff(&sb, a, b)
	if !strings.Contains(sb.String(), "alpha") || !strings.Contains(sb.String(), "beta") {
		t.Fatalf("diff output missing system names:\n%s", sb.String())
	}
}
