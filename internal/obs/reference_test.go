package obs

// The read side as it stood before it was rewritten for throughput,
// kept verbatim as the oracle the differential tests compare against:
// one reflective json.Marshal per record in the encoder, Go maps keyed
// by core in Summarize, Windows and Validate.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
)

// chromeArgs is the args payload of an event record.
type chromeArgs struct {
	Task  uint64 `json:"task"`
	Class int16  `json:"class"`
	Core  int32  `json:"core"`
}

func writeChromeRef(w io.Writer, procs ...Process) error {
	if _, err := io.WriteString(w, "{\"traceEvents\": [\n"); err != nil {
		return err
	}
	first := true
	put := func(ce chromeEvent) error {
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		sep := ",\n"
		if first {
			sep = ""
			first = false
		}
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	}
	for pi := range procs {
		p := &procs[pi]
		pid := pi + 1
		if err := put(chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: chromeName{p.Name}}); err != nil {
			return err
		}
		if err := put(chromeEvent{Name: "process_sort_index", Ph: "M", Pid: pid, Args: chromeSort{pi}}); err != nil {
			return err
		}
		for _, tid := range trackTidsRef(p.Events) {
			if err := put(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: chromeName{trackName(tid)}}); err != nil {
				return err
			}
		}
		for _, e := range p.Events {
			ce := chromeEvent{
				Cat:  e.Kind.String(),
				Ts:   float64(e.T) / 1000,
				Pid:  pid,
				Tid:  coreTid(e.Core),
				Args: chromeArgs{Task: e.Task, Class: e.Class, Core: e.Core},
			}
			switch e.Kind {
			case QuantumStart:
				ce.Name = fmt.Sprintf("task %d (class %d)", e.Task, e.Class)
				ce.Ph = "B"
			case QuantumEnd:
				ce.Name = fmt.Sprintf("task %d (class %d)", e.Task, e.Class)
				ce.Ph = "E"
			default:
				ce.Name = fmt.Sprintf("%s task %d", e.Kind, e.Task)
				ce.Ph = "i"
				ce.S = "t"
				if e.Kind == Dispatch {
					// Dispatch renders on the dispatcher track; the
					// chosen core rides in args.core.
					ce.Tid = tidDispatcher
				}
			}
			if err := put(ce); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

func trackTidsRef(events []Event) []int {
	if len(events) == 0 {
		return nil
	}
	seen := map[int]bool{tidLoadgen: true, tidDispatcher: true}
	for _, e := range events {
		seen[coreTid(e.Core)] = true
	}
	tids := make([]int, 0, len(seen))
	for t := range seen {
		tids = append(tids, t)
	}
	sort.Ints(tids)
	return tids
}

func summarizeRef(name string, events []Event) *Summary {
	s := &Summary{Name: name}
	if len(events) == 0 {
		return s
	}
	s.Start = events[0].T
	arrived := map[uint64]int64{}
	started := map[int32]int64{}
	occupancy := 0
	for _, e := range events {
		if e.T > s.End {
			s.End = e.T
		}
		if e.T < s.Start {
			s.Start = e.T
		}
		s.Counts[e.Kind]++
		if c := int(e.Core) + 1; e.Core >= 0 && c > s.Cores {
			s.Cores = c
		}
		switch e.Kind {
		case Arrive:
			arrived[e.Task] = e.T
			occupancy++
			if occupancy > s.MaxOccupancy {
				s.MaxOccupancy = occupancy
			}
		case QuantumStart:
			started[e.Core] = e.T
		case QuantumEnd:
			if at, ok := started[e.Core]; ok {
				for int(e.Core) >= len(s.CoreBusy) {
					s.CoreBusy = append(s.CoreBusy, 0)
				}
				s.CoreBusy[e.Core] += e.T - at
				delete(started, e.Core)
			}
		case ProbeYield, Preempt:
			s.Preemptions++
		case Finish:
			occupancy--
			if at, ok := arrived[e.Task]; ok {
				s.Sojourn.Add(e.T - at)
				delete(arrived, e.Task)
			}
		case Drop:
			occupancy--
			delete(arrived, e.Task)
		}
	}
	s.Tasks = s.Counts[Arrive]
	s.Finished = s.Counts[Finish]
	s.Dropped = s.Counts[Drop]
	span := s.End - s.Start
	for int(s.Cores) > len(s.CoreBusy) {
		s.CoreBusy = append(s.CoreBusy, 0)
	}
	s.Util = make([]float64, len(s.CoreBusy))
	if span > 0 {
		for i, busy := range s.CoreBusy {
			s.Util[i] = float64(busy) / float64(span)
		}
		s.PreemptRate = float64(s.Preemptions) / (float64(span) / 1e9)
	}
	return s
}

func windowsRef(events []Event, width int64) []Window {
	if len(events) == 0 || width <= 0 {
		return nil
	}
	start, end := events[0].T, events[0].T
	for _, e := range events {
		if e.T < start {
			start = e.T
		}
		if e.T > end {
			end = e.T
		}
	}
	n := int((end-start)/width) + 1
	wins := make([]Window, n)
	hists := make([]stats.Hist, n)
	for i := range wins {
		wins[i].Start = start + int64(i)*width
	}
	idx := func(t int64) int {
		i := int((t - start) / width)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	cores := 0
	arrived := map[uint64]int64{}
	started := map[int32]int64{}
	occupancy := 0
	// occAt records the latest occupancy seen per window; windows with
	// no events inherit their predecessor's value afterwards.
	occAt := make([]int, n)
	occSet := make([]bool, n)
	busy := make([]int64, n) // quantum ns overlapping each window
	for _, e := range events {
		if c := int(e.Core) + 1; e.Core >= 0 && c > cores {
			cores = c
		}
		w := idx(e.T)
		switch e.Kind {
		case Arrive:
			arrived[e.Task] = e.T
			occupancy++
		case Dispatch:
			wins[w].Dispatches++
		case QuantumStart:
			started[e.Core] = e.T
		case QuantumEnd:
			at, ok := started[e.Core]
			if !ok {
				break
			}
			delete(started, e.Core)
			// Apportion [at, e.T) across the windows it overlaps.
			for t := at; t < e.T; {
				i := idx(t)
				winEnd := wins[i].Start + width
				seg := e.T
				if winEnd < seg {
					seg = winEnd
				}
				busy[i] += seg - t
				t = seg
			}
		case ProbeYield, Preempt:
			wins[w].Preemptions++
		case Finish:
			wins[w].Finishes++
			occupancy--
			if at, ok := arrived[e.Task]; ok {
				hists[w].Add(e.T - at)
				delete(arrived, e.Task)
			}
		case Drop:
			wins[w].Drops++
			occupancy--
			delete(arrived, e.Task)
		}
		occAt[w] = occupancy
		occSet[w] = true
	}
	if cores == 0 {
		cores = 1
	}
	prevOcc := 0
	for i := range wins {
		if occSet[i] {
			prevOcc = occAt[i]
		}
		wins[i].Occupancy = prevOcc
		wins[i].Busy = float64(busy[i]) / (float64(width) * float64(cores))
		wins[i].P50 = int64(hists[i].Median())
		wins[i].P99 = int64(hists[i].P99())
	}
	return wins
}

type taskStateRef struct {
	last  Kind
	lastT int64
	core  int32 // core of the open quantum, valid between QuantumStart and QuantumEnd
	done  bool
}

func validateRef(events []Event) error {
	tasks := map[uint64]*taskStateRef{}
	open := map[int32]uint64{} // core -> task of the open quantum
	for i, e := range events {
		ts := tasks[e.Task]
		if ts == nil {
			if e.Kind != Arrive {
				return fmt.Errorf("event %d: task %d begins with %v, want arrive", i, e.Task, e.Kind)
			}
			tasks[e.Task] = &taskStateRef{last: Arrive, lastT: e.T}
			continue
		}
		if ts.done {
			return fmt.Errorf("event %d: task %d got %v after its terminal event", i, e.Task, e.Kind)
		}
		if e.T < ts.lastT {
			return fmt.Errorf("event %d: task %d time went backwards at %v (%dns < %dns)",
				i, e.Task, e.Kind, e.T, ts.lastT)
		}
		if ts.last == QuantumEnd && (e.Kind != ProbeYield && e.Kind != Preempt && e.Kind != Finish) {
			return fmt.Errorf("event %d: task %d got %v after qend, want probe-yield, preempt, or finish",
				i, e.Task, e.Kind)
		}
		switch e.Kind {
		case Arrive:
			return fmt.Errorf("event %d: task %d arrived twice", i, e.Task)
		case Dispatch:
			if ts.last != Arrive && ts.last != ProbeYield && ts.last != Preempt {
				return fmt.Errorf("event %d: task %d dispatched after %v", i, e.Task, ts.last)
			}
		case QuantumStart:
			if ts.last != Dispatch && ts.last != ProbeYield && ts.last != Preempt {
				return fmt.Errorf("event %d: task %d quantum started after %v", i, e.Task, ts.last)
			}
			if other, busy := open[e.Core]; busy {
				return fmt.Errorf("event %d: task %d quantum started on core %d while task %d's quantum is open",
					i, e.Task, e.Core, other)
			}
			open[e.Core] = e.Task
			ts.core = e.Core
		case QuantumEnd:
			if ts.last != QuantumStart {
				return fmt.Errorf("event %d: task %d quantum ended after %v", i, e.Task, ts.last)
			}
			if e.Core != ts.core {
				return fmt.Errorf("event %d: task %d quantum ended on core %d but started on core %d",
					i, e.Task, e.Core, ts.core)
			}
			delete(open, e.Core)
		case ProbeYield, Preempt:
			if ts.last != QuantumEnd {
				return fmt.Errorf("event %d: task %d got %v after %v, want qend", i, e.Task, e.Kind, ts.last)
			}
			if e.T != ts.lastT {
				return fmt.Errorf("event %d: task %d %v at %dns but its quantum ended at %dns",
					i, e.Task, e.Kind, e.T, ts.lastT)
			}
		case Finish:
			clientView := ts.last == Arrive && e.Core == CoreLoadgen
			if ts.last != QuantumEnd && !clientView {
				return fmt.Errorf("event %d: task %d finished after %v", i, e.Task, ts.last)
			}
			if ts.last == QuantumEnd && e.T != ts.lastT {
				return fmt.Errorf("event %d: task %d finished at %dns but its last quantum ended at %dns",
					i, e.Task, e.T, ts.lastT)
			}
			ts.done = true
		case Drop:
			if ts.last != Arrive {
				return fmt.Errorf("event %d: task %d dropped after %v", i, e.Task, ts.last)
			}
			ts.done = true
		default:
			return fmt.Errorf("event %d: task %d has unknown kind %v", i, e.Task, e.Kind)
		}
		ts.last = e.Kind
		ts.lastT = e.T
	}
	return nil
}
