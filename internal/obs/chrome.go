package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Process is one scheduler's timeline in an exported trace: a named
// group of events sharing a pid in the Chrome trace-event file. A
// comparison trace (tqsim -trace, tqtrace export) holds one Process
// per machine so Perfetto shows the schedulers stacked on a shared
// time axis.
type Process struct {
	// Name labels the process group (the machine's Name()).
	Name string
	// Events is the time-ordered event stream.
	Events []Event
}

// Track layout inside a process: tid 0 is the load generator, tid 1
// the dispatcher, and core c maps to tid c+2, so Perfetto's default
// tid ordering shows loadgen, dispatcher, then cores in index order.
const (
	tidLoadgen    = 0
	tidDispatcher = 1
	tidCoreBase   = 2
)

func coreTid(core int32) int {
	switch core {
	case CoreLoadgen:
		return tidLoadgen
	case CoreDispatcher:
		return tidDispatcher
	default:
		return int(core) + tidCoreBase
	}
}

func tidCore(tid int) int32 {
	switch tid {
	case tidLoadgen:
		return CoreLoadgen
	case tidDispatcher:
		return CoreDispatcher
	default:
		return int32(tid - tidCoreBase)
	}
}

// chromeEvent is one record of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Field order here is the on-disk field order — it is part of the
// golden-file contract, so do not reorder. Metadata records marshal
// through this struct; appendEvent writes event records by hand in the
// same order, and the tests hold it to this struct's encoding/json
// rendering byte for byte.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"` // µs, fractional for sub-µs precision
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	S    string      `json:"s,omitempty"`
	Args interface{} `json:"args,omitempty"`
}

type chromeName struct {
	Name string `json:"name"`
}

type chromeSort struct {
	SortIndex int `json:"sort_index"`
}

// trackName labels a tid for the metadata events.
func trackName(tid int) string {
	switch tid {
	case tidLoadgen:
		return "loadgen"
	case tidDispatcher:
		return "dispatcher"
	default:
		return fmt.Sprintf("core %d", tid-tidCoreBase)
	}
}

// chromeFlush is how many encoded bytes WriteChrome gathers before it
// hands them to the writer, so that a bare *os.File costs one write(2)
// per ~500 records.
const chromeFlush = 64 << 10

// WriteChrome renders the processes as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. Each process becomes a pid
// with named loadgen/dispatcher/core tracks; QuantumStart/QuantumEnd
// become matched B/E duration slices on the executing core's track and
// every other kind becomes a thread-scoped instant. The mapping is
// one-to-one and in input order, so ReadChrome recovers the exact
// event streams. Events must be time-ordered per track (emission order
// from any recorder in this package satisfies this).
func WriteChrome(w io.Writer, procs ...Process) error {
	// Sized so that a record appended below the flush mark never regrows
	// the buffer: the longest possible record is under 256 bytes.
	buf := make([]byte, 0, chromeFlush+256)
	buf = append(buf, "{\"traceEvents\": [\n"...)
	sep := ""
	for pi := range procs {
		p := &procs[pi]
		pid := pi + 1
		// Process names are caller-supplied and need JSON's escaping, so
		// the few metadata records per process go through encoding/json.
		meta := []chromeEvent{
			{Name: "process_name", Ph: "M", Pid: pid, Args: chromeName{p.Name}},
			{Name: "process_sort_index", Ph: "M", Pid: pid, Args: chromeSort{pi}},
		}
		for _, tid := range trackTids(p.Events) {
			meta = append(meta, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: chromeName{trackName(tid)}})
		}
		for i := range meta {
			b, err := json.Marshal(&meta[i])
			if err != nil {
				return err
			}
			buf = append(append(buf, sep...), b...)
			sep = ",\n"
		}
		for i := range p.Events {
			// Metadata precedes every process's events, so an event
			// record is never the file's first.
			buf = appendEvent(append(buf, ",\n"...), pid, &p.Events[i])
			if len(buf) >= chromeFlush {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	_, err := w.Write(append(buf, "\n]}\n"...))
	return err
}

// appendEvent appends e's trace-event record — byte for byte what
// json.Marshal renders for a chromeEvent built from e, its Args a struct
// of task, class and core in that order — using strconv appends only:
// no reflection, no Sprintf, no allocation per record.
func appendEvent(b []byte, pid int, e *Event) []byte {
	quantum := e.Kind == QuantumStart || e.Kind == QuantumEnd
	b = append(b, `{"name":"`...)
	if !quantum {
		b = append(appendKind(b, e.Kind), ' ')
	}
	b = append(b, "task "...)
	b = strconv.AppendUint(b, e.Task, 10)
	if quantum {
		b = append(b, " (class "...)
		b = strconv.AppendInt(b, int64(e.Class), 10)
		b = append(b, ')')
	}
	b = append(b, `","cat":"`...)
	b = appendKind(b, e.Kind)
	tid := coreTid(e.Core)
	switch e.Kind {
	case QuantumStart:
		b = append(b, `","ph":"B","ts":`...)
	case QuantumEnd:
		b = append(b, `","ph":"E","ts":`...)
	case Dispatch:
		// Dispatch renders on the dispatcher track; the chosen core
		// rides in args.core.
		tid = tidDispatcher
		fallthrough
	default:
		b = append(b, `","ph":"i","ts":`...)
	}
	b = appendMicros(b, e.T)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if !quantum {
		b = append(b, `,"s":"t"`...)
	}
	// The args carry the event payload so the export is lossless:
	// ReadChrome reconstructs Event exactly from cat + ts + args.
	b = append(b, `,"args":{"task":`...)
	b = strconv.AppendUint(b, e.Task, 10)
	b = append(b, `,"class":`...)
	b = strconv.AppendInt(b, int64(e.Class), 10)
	b = append(b, `,"core":`...)
	b = strconv.AppendInt(b, int64(e.Core), 10)
	return append(b, "}}"...)
}

// appendMicros appends t nanoseconds as the microsecond timestamp
// encoding/json would print for float64(t)/1000: the shortest decimal
// that reads back as that float64.
func appendMicros(b []byte, t int64) []byte {
	if t < 0 || t >= 1e15 {
		// encoding/json switches to exponent form only below 1e-6 and
		// from 1e21; a nonzero int64 over 1000 lies in [1e-3, 1e16).
		return strconv.AppendFloat(b, float64(t)/1000, 'f', -1, 64)
	}
	// Below 1e15 ns the exact quotient has at most 15 significant
	// digits, and no two decimals that short share a float64, so the
	// shortest form is the quotient itself with trailing zeros trimmed.
	b = strconv.AppendInt(b, t/1000, 10)
	if frac := t % 1000; frac != 0 {
		b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
		for b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
	}
	return b
}

// trackTids returns the sorted set of tids the events touch, always
// including the loadgen and dispatcher tracks when any event exists.
func trackTids(events []Event) []int {
	if len(events) == 0 {
		return nil
	}
	var seen perCore[struct{}]
	seen.set(CoreLoadgen, struct{}{})
	seen.set(CoreDispatcher, struct{}{})
	for i := range events {
		seen.set(events[i].Core, struct{}{})
	}
	cores := seen.cores()
	tids := make([]int, len(cores))
	for i, c := range cores {
		tids[i] = coreTid(c) // monotone in the core, so tids stay sorted
	}
	return tids
}

// ReadChrome parses a trace written by WriteChrome back into its
// processes, with events exactly as recorded (timestamps recover the
// original nanosecond values). It tolerates and ignores metadata and
// events from other producers whose cat is not an obs kind.
func ReadChrome(r io.Reader) ([]Process, error) {
	var file struct {
		TraceEvents []struct {
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Name string  `json:"name"`
			Args struct {
				Task  uint64 `json:"task"`
				Class int16  `json:"class"`
				Core  int32  `json:"core"`
				Name  string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("obs: not a trace-event file: %w", err)
	}
	byPid := map[int]*Process{}
	var pids []int
	proc := func(pid int) *Process {
		p := byPid[pid]
		if p == nil {
			p = &Process{}
			byPid[pid] = p
			pids = append(pids, pid)
		}
		return p
	}
	for _, ce := range file.TraceEvents {
		if ce.Ph == "M" {
			if ce.Name == "process_name" {
				proc(ce.Pid).Name = ce.Args.Name
			}
			continue
		}
		kind, ok := KindFromString(ce.Cat)
		if !ok {
			continue
		}
		proc(ce.Pid).Events = append(proc(ce.Pid).Events, Event{
			T:     int64(math.Round(ce.Ts * 1000)),
			Task:  ce.Args.Task,
			Core:  ce.Args.Core,
			Class: ce.Args.Class,
			Kind:  kind,
		})
	}
	sort.Ints(pids)
	out := make([]Process, 0, len(pids))
	for _, pid := range pids {
		out = append(out, *byPid[pid])
	}
	return out, nil
}
