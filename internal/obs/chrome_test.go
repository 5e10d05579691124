package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unicode/utf8"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenProcs is a small fixed comparison trace: two schedulers, two
// cores each, exercising every event kind.
func goldenProcs() []Process {
	tq := append(lifecycle(1, 0, 0), lifecycle(2, 1, 5)...)
	tq = append(tq,
		Event{T: 90, Task: 3, Core: CoreLoadgen, Kind: Arrive},
		Event{T: 91, Task: 3, Core: CoreDispatcher, Kind: Drop})
	SortByTime(tq)
	sj := []Event{
		{T: 0, Task: 1, Core: CoreLoadgen, Kind: Arrive},
		{T: 10, Task: 1, Core: 0, Kind: Dispatch},
		{T: 12, Task: 1, Core: 0, Kind: QuantumStart},
		{T: 30, Task: 1, Core: 0, Kind: QuantumEnd},
		{T: 30, Task: 1, Core: 0, Kind: Preempt},
		{T: 35, Task: 1, Core: 1, Kind: Dispatch},
		{T: 37, Task: 1, Core: 1, Kind: QuantumStart},
		{T: 45, Task: 1, Core: 1, Kind: QuantumEnd},
		{T: 45, Task: 1, Core: 1, Kind: Finish},
	}
	return []Process{{Name: "TQ", Events: tq}, {Name: "Shinjuku", Events: sj}}
}

func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenProcs()...); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from golden file (field order and layout are a contract; run with -update if intentional)\ngot:\n%s", buf.Bytes())
	}
}

// TestChromeExportWellFormed checks the structural contract the golden
// file freezes: valid JSON, monotonic timestamps per track, and
// matched B/E pairs per track.
func TestChromeExportWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenProcs()...); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Name string  `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	type track struct{ pid, tid int }
	lastTs := map[track]float64{}
	depth := map[track]int{}
	for i, e := range file.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		k := track{e.Pid, e.Tid}
		if e.Ts < lastTs[k] {
			t.Fatalf("event %d: timestamp %.3f before %.3f on pid=%d tid=%d", i, e.Ts, lastTs[k], e.Pid, e.Tid)
		}
		lastTs[k] = e.Ts
		switch e.Ph {
		case "B":
			depth[k]++
		case "E":
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("event %d: E without B on pid=%d tid=%d", i, e.Pid, e.Tid)
			}
		case "i":
		default:
			t.Fatalf("event %d: unexpected phase %q", i, e.Ph)
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Fatalf("unmatched B/E pairs on pid=%d tid=%d: depth %d", k.pid, k.tid, d)
		}
	}
}

func TestChromeRoundTrip(t *testing.T) {
	procs := goldenProcs()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, procs...); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(procs) {
		t.Fatalf("round trip returned %d processes, want %d", len(got), len(procs))
	}
	for i := range procs {
		if got[i].Name != procs[i].Name {
			t.Fatalf("process %d name %q, want %q", i, got[i].Name, procs[i].Name)
		}
		if !reflect.DeepEqual(got[i].Events, procs[i].Events) {
			t.Fatalf("process %q events did not round-trip:\ngot  %+v\nwant %+v",
				procs[i].Name, got[i].Events, procs[i].Events)
		}
	}
}

func TestReadChromeRejectsGarbage(t *testing.T) {
	if _, err := ReadChrome(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// fuzzEventSize is the fuzz corpus encoding of one Event: T, Task,
// Core, Class and Kind, little-endian, back to back.
const fuzzEventSize = 8 + 8 + 4 + 2 + 1

func fuzzBytes(events ...Event) []byte {
	var b []byte
	for _, e := range events {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.T))
		b = binary.LittleEndian.AppendUint64(b, e.Task)
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Core))
		b = binary.LittleEndian.AppendUint16(b, uint16(e.Class))
		b = append(b, byte(e.Kind))
	}
	return b
}

func fuzzEvents(data []byte) []Event {
	var events []Event
	for ; len(data) >= fuzzEventSize; data = data[fuzzEventSize:] {
		events = append(events, Event{
			T:     int64(binary.LittleEndian.Uint64(data)),
			Task:  binary.LittleEndian.Uint64(data[8:]),
			Core:  int32(binary.LittleEndian.Uint32(data[16:])),
			Class: int16(binary.LittleEndian.Uint16(data[20:])),
			Kind:  Kind(data[22]),
		})
	}
	return events
}

// checkChromeVsJSON holds WriteChrome to the per-record json.Marshal
// encoder it replaced, byte for byte, and to ReadChrome recovering the
// input.
func checkChromeVsJSON(t *testing.T, procs []Process) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteChrome(&got, procs...); err != nil {
		t.Fatal(err)
	}
	if err := writeChromeRef(&want, procs...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("export differs from encoding/json at byte %d:\ngot  …%s\nwant …%s",
			i, g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
	}
	back, err := ReadChrome(&got)
	if err != nil {
		t.Fatalf("ReadChrome rejected the export: %v", err)
	}
	if len(back) != len(procs) {
		t.Fatalf("read back %d processes, wrote %d", len(back), len(procs))
	}
	for pi, p := range procs {
		// encoding/json replaces invalid UTF-8 on the way out.
		if utf8.ValidString(p.Name) && back[pi].Name != p.Name {
			t.Fatalf("process %d name %q read back as %q", pi, p.Name, back[pi].Name)
		}
		var kept []Event // ReadChrome skips cats that are not obs kinds
		for _, e := range p.Events {
			if int(e.Kind) < KindCount {
				kept = append(kept, e)
			}
		}
		if len(back[pi].Events) != len(kept) {
			t.Fatalf("process %d: read back %d events, wrote %d of known kind", pi, len(back[pi].Events), len(kept))
		}
		for i, e := range kept {
			b := back[pi].Events[i]
			// A float64 of microseconds holds every nanosecond only
			// below 2^51 ns (26 days); beyond it T reads back rounded.
			if e.T <= -1<<51 || e.T >= 1<<51 {
				b.T = e.T
			}
			if b != e {
				t.Fatalf("process %d event %d: wrote %+v, read back %+v", pi, i, e, b)
			}
		}
	}
}

func FuzzWriteChromeVsJSON(f *testing.F) {
	f.Add(fuzzBytes(goldenProcs()[0].Events...), "TQ", "Shinjuku", uint16(9))
	f.Add(fuzzBytes(
		Event{T: -1, Task: 1, Core: CoreLoadgen, Kind: Arrive},
		Event{T: -1500, Task: 1, Core: 0, Kind: QuantumStart},
		Event{T: math.MinInt64, Task: 1, Core: 0, Kind: QuantumEnd},
	), "negative T", "", uint16(0))
	f.Add(fuzzBytes(
		Event{T: 1e15 - 1, Task: 2, Core: 3, Kind: QuantumStart},
		Event{T: 1e15, Task: 2, Core: 3, Kind: QuantumEnd},
		Event{T: 1e15 + 1, Task: 2, Core: 3, Kind: Finish},
		Event{T: 1<<51 - 1, Task: 2, Core: 3, Kind: Dispatch},
		Event{T: math.MaxInt64, Task: 2, Core: 3, Kind: Drop},
	), "T at the integer path's edge", "", uint16(2))
	f.Add(fuzzBytes(
		Event{T: 1, Task: 3, Kind: Kind(KindCount)},
		Event{T: 2, Task: 3, Kind: 255},
		Event{T: 1001, Task: math.MaxUint64, Class: -1, Kind: QuantumStart},
		Event{T: 1010, Task: math.MaxUint64, Class: math.MinInt16, Kind: QuantumEnd},
		Event{T: 1100, Task: math.MaxUint64, Class: math.MaxInt16, Kind: ProbeYield},
	), "unknown kinds, extreme task and class", "p2", uint16(5))
	f.Add(fuzzBytes(
		Event{T: 10, Task: 4, Core: math.MinInt32, Kind: QuantumStart},
		Event{T: 20, Task: 4, Core: math.MaxInt32, Kind: QuantumEnd},
		Event{T: 30, Task: 4, Core: -3, Kind: Dispatch},
		Event{T: 40, Task: 4, Core: 70000, Kind: Preempt},
	), "", "core extremes, empty process name", uint16(1))
	f.Add([]byte(nil), "no events <&> \"quoted\" \\ \u2028 é", "bad utf8 \xff", uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, name1, name2 string, split uint16) {
		events := fuzzEvents(data)
		// split picks where the second process starts; one past the end
		// means a single process.
		procs := []Process{{Name: name1, Events: events}}
		if n := int(split) % (len(events) + 2); n <= len(events) {
			procs = []Process{{Name: name1, Events: events[:n]}, {Name: name2, Events: events[n:]}}
		}
		checkChromeVsJSON(t, procs)
	})
}

// TestWriteChromeVsJSONBulk runs the differential check over enough
// events to cross several buffer flushes, with every timestamp shape
// the integer path trims: whole µs, one, two and three fraction digits.
func TestWriteChromeVsJSONBulk(t *testing.T) {
	checkChromeVsJSON(t, nil)
	rng := rand.New(rand.NewSource(17))
	events := make([]Event, 5000)
	var now int64
	for i := range events {
		now += []int64{1, 10, 100, 1000, 12345}[rng.Intn(5)] * int64(rng.Intn(4))
		events[i] = Event{
			T:     now,
			Task:  rng.Uint64() >> uint(rng.Intn(64)),
			Core:  int32(rng.Intn(70)) - 2,
			Class: int16(rng.Intn(5)) - 1,
			Kind:  Kind(rng.Intn(KindCount)),
		}
	}
	checkChromeVsJSON(t, []Process{{Name: "bulk", Events: events}, {Name: "tail", Events: events[:100]}})
}

// failingWriter accepts failAt-1 writes and fails from the next on.
type failingWriter struct {
	failAt, calls int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls >= w.failAt {
		return 0, errDiskFull
	}
	return len(p), nil
}

// TestWriteChromeStopsAtWriteError: whichever write fails, WriteChrome
// returns that error and does not touch the writer again.
func TestWriteChromeStopsAtWriteError(t *testing.T) {
	proc := Process{Name: "p", Events: traceEvents(3000)}
	var ok failingWriter
	ok.failAt = math.MaxInt
	if err := WriteChrome(&ok, proc); err != nil {
		t.Fatal(err)
	}
	if ok.calls < 3 {
		t.Fatalf("export took %d writes; the test needs at least 3 to cover a mid-stream failure", ok.calls)
	}
	for failAt := 1; failAt <= ok.calls; failAt++ {
		w := failingWriter{failAt: failAt}
		if err := WriteChrome(&w, proc); !errors.Is(err, errDiskFull) {
			t.Fatalf("write %d failed but WriteChrome returned %v", failAt, err)
		}
		if w.calls != failAt {
			t.Fatalf("write %d failed and WriteChrome went on to make %d writes", failAt, w.calls)
		}
	}
}

// traceEvents returns n events of back-to-back valid task lifecycles
// spread over 16 cores.
func traceEvents(n int) []Event {
	events := make([]Event, 0, n+8)
	for task := uint64(1); len(events) < n; task++ {
		events = append(events, lifecycle(task, int32(task%16), int64(task)*100)...)
	}
	return events[:n]
}

// TestWriteChromeAllocs: the export allocates its buffer and a few
// metadata records per process, and nothing per event.
func TestWriteChromeAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		proc := Process{Name: "p", Events: traceEvents(n)}
		return testing.AllocsPerRun(5, func() {
			if err := WriteChrome(io.Discard, proc); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(50000)
	// Not exact equality: encoding/json keeps its encoders in a
	// sync.Pool, which a GC empties and the race detector makes lossy,
	// so the metadata records cost a few allocations more or less from
	// run to run. One allocation per event would be 49000 more.
	if perEvent := (large - small) / 49000; perEvent > 0.002 {
		t.Fatalf("allocations grow with the event count: %.0f for 1000 events, %.0f for 50000", small, large)
	}
	const records = 18 + 2 // thread names + the two per process
	if small > 10*records {
		t.Fatalf("%.0f allocations to export %d metadata records, want a handful each", small, records)
	}
}

// BenchmarkWriteChrome times the export of 2^19 events (the prefix the
// tq-traced benchmark workload exports) next to the json.Marshal
// encoder it replaced.
func BenchmarkWriteChrome(b *testing.B) {
	proc := Process{Name: "tq", Events: traceEvents(1 << 19)}
	for _, enc := range []struct {
		name  string
		write func(io.Writer, ...Process) error
	}{{"append", WriteChrome}, {"json-reference", writeChromeRef}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := enc.write(io.Discard, proc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
