package obs

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomTimeline returns n events of a mostly well-formed run over the
// given cores — tasks arrive, are dispatched, run quanta that end in a
// yield, a preemption or a finish, or are dropped — then damages a few
// events, so the read side's tolerant paths (a QuantumEnd with nothing
// open, a core reused while busy) and Validate's rejections are
// reached as well as the clean ones.
func randomTimeline(rng *rand.Rand, cores []int32, n int) []Event {
	type task struct {
		id      uint64
		core    int32
		running bool
	}
	var (
		events []Event
		live   []*task
		busy   = map[int32]bool{}
		now    int64
		nextID uint64
	)
	emit := func(k Kind, t *task, core int32) {
		events = append(events, Event{T: now, Task: t.id, Core: core, Class: int16(t.id % 3), Kind: k})
	}
	for len(events) < n {
		now += int64(rng.Intn(50))
		if len(live) == 0 || rng.Intn(4) == 0 {
			nextID += 1 + uint64(rng.Intn(3))
			t := &task{id: nextID, core: cores[rng.Intn(len(cores))]}
			emit(Arrive, t, CoreLoadgen)
			if rng.Intn(10) == 0 {
				emit(Drop, t, CoreDispatcher)
				continue
			}
			emit(Dispatch, t, t.core)
			live = append(live, t)
			continue
		}
		i := rng.Intn(len(live))
		t := live[i]
		if !t.running {
			if busy[t.core] {
				continue
			}
			busy[t.core], t.running = true, true
			emit(QuantumStart, t, t.core)
			continue
		}
		busy[t.core], t.running = false, false
		emit(QuantumEnd, t, t.core)
		switch rng.Intn(3) {
		case 0:
			emit(ProbeYield, t, t.core)
		case 1:
			emit(Preempt, t, t.core)
			t.core = cores[rng.Intn(len(cores))]
			emit(Dispatch, t, t.core)
		default:
			emit(Finish, t, t.core)
			live = append(live[:i], live[i+1:]...)
		}
	}
	for d := rng.Intn(4); d > 0; d-- {
		e := &events[rng.Intn(len(events))]
		switch rng.Intn(4) {
		case 0:
			e.Kind = Kind(rng.Intn(KindCount))
		case 1:
			e.Core = cores[rng.Intn(len(cores))]
		case 2:
			e.T -= int64(rng.Intn(200))
		default:
			e.Task = uint64(rng.Intn(int(nextID))) + 1
		}
	}
	return events
}

// TestReadSideMatchesMapOriginals drives Summarize, Windows and
// Validate against the map-keyed-by-core implementations they replaced
// (reference_test.go), on core layouts that exercise the dense slice,
// its growth, and the sparse fallback.
func TestReadSideMatchesMapOriginals(t *testing.T) {
	layouts := []struct {
		name  string
		cores []int32
		// summarize is false where the original sized CoreBusy by the
		// core's value or indexed it with a negative core — the cases the
		// rewrite bounds instead (TestReadSideHostileCores).
		summarize bool
	}{
		{"contiguous", []int32{0, 1, 2, 3}, true},
		{"sparse", []int32{0, 7, 300, 40000, denseCores - 1}, true},
		{"rack bands", []int32{0, 1, 15, 1024, 1025, 1039, 2048, 3 * 1024, 63*1024 + 15}, true},
		{"beyond the dense range", []int32{2, denseCores, denseCores + 1, 1 << 20, math.MaxInt32, -3, math.MinInt32}, false},
	}
	for _, l := range layouts {
		rng := rand.New(rand.NewSource(29))
		for trial := 0; trial < 60; trial++ {
			events := randomTimeline(rng, l.cores, 40+rng.Intn(400))
			got, want := Validate(events), validateRef(events)
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("%s trial %d: Validate says %v, the original %v", l.name, trial, got, want)
			}
			width := int64(1 + rng.Intn(2000))
			if got, want := Windows(events, width), windowsRef(events, width); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: Windows(width %d) differs from the original\ngot  %+v\nwant %+v", l.name, trial, width, got, want)
			}
			if !l.summarize {
				continue
			}
			if got, want := Summarize("x", events), summarizeRef("x", events); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: Summarize differs from the original\ngot  %+v\nwant %+v", l.name, trial, got, want)
			}
		}
	}
}

// TestReadSideHostileCores: core values arrive from files, so no int32
// may panic the read side or size an allocation. Quanta still pair up
// on any core; only the per-core tables of Summary stop at denseCores.
func TestReadSideHostileCores(t *testing.T) {
	quantum := func(task uint64, core int32, t0 int64) []Event {
		return []Event{
			{T: t0, Task: task, Core: CoreLoadgen, Kind: Arrive},
			{T: t0 + 1, Task: task, Core: core, Kind: Dispatch},
			{T: t0 + 2, Task: task, Core: core, Kind: QuantumStart},
			{T: t0 + 12, Task: task, Core: core, Kind: QuantumEnd},
			{T: t0 + 12, Task: task, Core: core, Kind: Finish},
		}
	}
	var events []Event
	hostile := []int32{math.MinInt32, -3, CoreLoadgen, CoreDispatcher, denseCores, math.MaxInt32}
	for i, core := range hostile {
		events = append(events, quantum(uint64(i+1), core, int64(i)*20)...)
	}
	events = append(events, quantum(99, 1, 200)...)
	// A QuantumEnd with no quantum open on its core is ignored.
	events = append(events, Event{T: 300, Task: 99, Core: 0, Kind: QuantumEnd})

	s := Summarize("hostile", events)
	if s.Cores != 2 || len(s.CoreBusy) != 2 || len(s.Util) != 2 {
		t.Fatalf("cores %d, CoreBusy %v, Util %v: want the two worker cores 0 and 1 only", s.Cores, s.CoreBusy, s.Util)
	}
	if s.CoreBusy[0] != 0 || s.CoreBusy[1] != 10 {
		t.Fatalf("core busy %v, want [0 10]", s.CoreBusy)
	}
	if want := uint64(len(hostile) + 1); s.Tasks != want || s.Finished != want {
		t.Fatalf("tasks/finished %d/%d, want %d/%d: out-of-range cores still count by kind", s.Tasks, s.Finished, want, want)
	}

	// Windows has no per-core table: every quantum counts, whatever its
	// core, exactly as in the original.
	if got, want := Windows(events, 50), windowsRef(events, 50); !reflect.DeepEqual(got, want) {
		t.Fatalf("Windows differs from the original\ngot  %+v\nwant %+v", got, want)
	}
	if err := Validate(events[:len(events)-1]); err != nil {
		t.Fatalf("Validate rejected well-formed quanta on unusual cores: %v", err)
	}
}

func TestPerCore(t *testing.T) {
	var p perCore[int]
	if _, ok := p.get(3); ok {
		t.Fatal("zero value holds a value")
	}
	p.clear(3) // clearing an empty table is a no-op
	for _, core := range []int32{5, CoreLoadgen, denseCores - 1, denseCores, math.MaxInt32, math.MinInt32, -3} {
		p.set(core, int(core))
	}
	if len(p.dense) != int(denseSlots) || len(p.sparse) != 4 {
		t.Fatalf("dense %d sparse %d, want %d and 4", len(p.dense), len(p.sparse), denseSlots)
	}
	if v, ok := p.get(denseCores - 1); !ok || v != denseCores-1 {
		t.Fatalf("get(denseCores-1) = %d, %v", v, ok)
	}
	if _, ok := p.get(4); ok {
		t.Fatal("core 4 was never set")
	}
	want := []int32{math.MinInt32, -3, CoreLoadgen, 5, denseCores - 1, denseCores, math.MaxInt32}
	if got := p.cores(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cores() = %v, want %v", got, want)
	}
	for _, core := range want {
		p.clear(core)
	}
	if got := p.cores(); len(got) != 0 {
		t.Fatalf("cores() = %v after clearing every core", got)
	}
}
