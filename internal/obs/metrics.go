package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
)

// Summary aggregates one scheduler's event stream: what a run did,
// per core and overall, computed purely from the recorded timeline so
// it works identically on live traces, simulated traces, and traces
// read back from disk.
type Summary struct {
	// Name labels the scheduler (Process.Name when read from a file).
	Name string
	// Cores is the number of worker cores observed: one past the highest
	// core index seen. Indices from 65536 up (beyond 64 rack bands — a
	// damaged file, not a machine) are not worker cores: their events
	// still count by kind and task, but Cores, CoreBusy and Util, which
	// are sized by core index, leave them out.
	Cores int
	// Start and End bound the observed timeline, in ns.
	Start, End int64
	// Counts tallies events by kind.
	Counts [KindCount]uint64
	// Tasks counts distinct arrived tasks; Finished and Dropped their
	// terminal outcomes.
	Tasks, Finished, Dropped uint64
	// CoreBusy is the executing time per core in ns (sum of quantum
	// durations); Util is CoreBusy over the observed span.
	CoreBusy []int64
	Util     []float64
	// Preemptions counts ProbeYield + Preempt events; PreemptRate is
	// per second of span.
	Preemptions uint64
	PreemptRate float64
	// MaxOccupancy is the high watermark of tasks in the system
	// (arrived, neither finished nor dropped).
	MaxOccupancy int
	// Sojourn is the histogram of arrive→finish latency, in ns: the
	// estimator (bucket scheme, rank rule, stats.HistRelErr) a simulated
	// run's own cluster.Result reads its quantiles from.
	Sojourn stats.Hist
}

// Summarize computes a Summary over one scheduler's events (emission
// order). Events of tasks whose Arrive fell outside the recording are
// still counted by kind but excluded from sojourn.
func Summarize(name string, events []Event) *Summary {
	s := &Summary{Name: name}
	if len(events) == 0 {
		return s
	}
	s.Start = events[0].T
	var arrived inflight
	var started perCore[int64]
	occupancy := 0
	for i := range events {
		e := &events[i]
		if e.T > s.End {
			s.End = e.T
		}
		if e.T < s.Start {
			s.Start = e.T
		}
		s.Counts[e.Kind]++
		worker := e.Core >= 0 && e.Core < denseCores
		if c := int(e.Core) + 1; worker && c > s.Cores {
			s.Cores = c
		}
		switch e.Kind {
		case Arrive:
			arrived.put(e.Task, e.T)
			occupancy++
			if occupancy > s.MaxOccupancy {
				s.MaxOccupancy = occupancy
			}
		case QuantumStart:
			started.set(e.Core, e.T)
		case QuantumEnd:
			if at, ok := started.get(e.Core); ok {
				started.clear(e.Core)
				if worker {
					for int(e.Core) >= len(s.CoreBusy) {
						s.CoreBusy = append(s.CoreBusy, 0)
					}
					s.CoreBusy[e.Core] += e.T - at
				}
			}
		case ProbeYield, Preempt:
			s.Preemptions++
		case Finish:
			occupancy--
			if at, ok := arrived.take(e.Task); ok {
				s.Sojourn.Add(e.T - at)
			}
		case Drop:
			occupancy--
			arrived.take(e.Task)
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

// MeanUtil is the mean per-core utilization over the span.
func (s *Summary) MeanUtil() float64 {
	if len(s.Util) == 0 {
		return 0
	}
	var sum float64
	for _, u := range s.Util {
		sum += u
	}
	return sum / float64(len(s.Util))
}

// Format writes a human-readable report.
func (s *Summary) Format(w io.Writer) {
	fmt.Fprintf(w, "%s: %d cores, span %.3fms, %d tasks (%d finished, %d dropped)\n",
		s.Name, s.Cores, float64(s.End-s.Start)/1e6, s.Tasks, s.Finished, s.Dropped)
	fmt.Fprintf(w, "  events:")
	for k := 0; k < KindCount; k++ {
		if s.Counts[k] > 0 {
			fmt.Fprintf(w, " %v=%d", Kind(k), s.Counts[k])
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  util: mean %.1f%% per-core [", 100*s.MeanUtil())
	for i, u := range s.Util {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprintf(w, "%.0f%%", 100*u)
	}
	fmt.Fprintln(w, "]")
	fmt.Fprintf(w, "  preemptions: %d (%.3gM/s), max occupancy %d\n",
		s.Preemptions, s.PreemptRate/1e6, s.MaxOccupancy)
	if s.Sojourn.Len() > 0 {
		fmt.Fprintf(w, "  sojourn: p50 %.1fµs  p99 %.1fµs  p99.9 %.1fµs  max %.1fµs (n=%d)\n",
			s.Sojourn.Median()/1000, s.Sojourn.P99()/1000,
			s.Sojourn.P999()/1000, s.Sojourn.Max()/1000,
			s.Sojourn.Len())
	}
}

// Diff writes a side-by-side comparison of two summaries — the heart
// of `tqtrace diff`: where one policy spends its cores, preempts, and
// holds its tails against another on the same workload.
func Diff(w io.Writer, a, b *Summary) {
	row := func(label string, av, bv float64, unit string) {
		delta := bv - av
		sign := "+"
		if delta < 0 {
			sign = ""
		}
		fmt.Fprintf(w, "  %-18s %12.4g %12.4g   %s%.4g%s\n", label, av, bv, sign, delta, unit)
	}
	fmt.Fprintf(w, "%-20s %12s %12s   %s\n", "metric", trunc(a.Name, 12), trunc(b.Name, 12), "delta")
	row("tasks", float64(a.Tasks), float64(b.Tasks), "")
	row("finished", float64(a.Finished), float64(b.Finished), "")
	row("dropped", float64(a.Dropped), float64(b.Dropped), "")
	row("mean util %", 100*a.MeanUtil(), 100*b.MeanUtil(), "")
	row("preempt/s", a.PreemptRate, b.PreemptRate, "")
	row("max occupancy", float64(a.MaxOccupancy), float64(b.MaxOccupancy), "")
	row("p50 sojourn µs", a.Sojourn.Median()/1000, b.Sojourn.Median()/1000, "")
	row("p99 sojourn µs", a.Sojourn.P99()/1000, b.Sojourn.P99()/1000, "")
	row("p99.9 sojourn µs", a.Sojourn.P999()/1000, b.Sojourn.P999()/1000, "")
}

func trunc(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// Window is one bucket of the windowed time series.
type Window struct {
	// Start is the window's inclusive lower bound, ns.
	Start int64
	// Busy is mean core utilization inside the window (quantum time
	// overlapping the window, over cores × width).
	Busy float64
	// Occupancy is the number of in-system tasks at the window's end.
	Occupancy int
	// Dispatches, Preemptions, Finishes, Drops count events inside the
	// window.
	Dispatches, Preemptions, Finishes, Drops int
	// P50 and P99 are sojourn quantiles (ns) over tasks finishing in
	// the window; 0 when nothing finished.
	P50, P99 int64
}

// Windows slices the event stream into fixed-width buckets (width ns)
// and computes the per-window time series: utilization, occupancy,
// dispatch/preemption/finish/drop rates, and sliding sojourn
// quantiles. Quantum time is apportioned exactly across the windows it
// overlaps. Events must be in emission order.
func Windows(events []Event, width int64) []Window {
	if len(events) == 0 || width <= 0 {
		return nil
	}
	start, end := events[0].T, events[0].T
	for i := range events {
		if t := events[i].T; t < start {
			start = t
		} else if t > end {
			end = t
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
	var arrived inflight
	var started perCore[int64]
	occupancy := 0
	// occAt records the latest occupancy seen per window; windows with
	// no events inherit their predecessor's value afterwards.
	occAt := make([]int, n)
	occSet := make([]bool, n)
	busy := make([]int64, n) // quantum ns overlapping each window
	for i := range events {
		e := &events[i]
		if c := int(e.Core) + 1; e.Core >= 0 && c > cores {
			cores = c
		}
		w := idx(e.T)
		switch e.Kind {
		case Arrive:
			arrived.put(e.Task, e.T)
			occupancy++
		case Dispatch:
			wins[w].Dispatches++
		case QuantumStart:
			started.set(e.Core, e.T)
		case QuantumEnd:
			at, ok := started.get(e.Core)
			if !ok {
				break
			}
			started.clear(e.Core)
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
			if at, ok := arrived.take(e.Task); ok {
				hists[w].Add(e.T - at)
			}
		case Drop:
			wins[w].Drops++
			occupancy--
			arrived.take(e.Task)
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

// WriteWindowsTSV renders the windowed series as tab-separated rows
// with a header — the `tqsim -metrics` output format.
func WriteWindowsTSV(w io.Writer, wins []Window) error {
	if _, err := fmt.Fprintln(w, "start_us\tutil\toccupancy\tdispatches\tpreemptions\tfinishes\tdrops\tp50_us\tp99_us"); err != nil {
		return err
	}
	for _, win := range wins {
		if _, err := fmt.Fprintf(w, "%.3f\t%.4f\t%d\t%d\t%d\t%d\t%d\t%.3f\t%.3f\n",
			float64(win.Start)/1000, win.Busy, win.Occupancy,
			win.Dispatches, win.Preemptions, win.Finishes, win.Drops,
			float64(win.P50)/1000, float64(win.P99)/1000); err != nil {
			return err
		}
	}
	return nil
}

// SortByTime stably sorts events by timestamp, preserving emission
// order at equal instants — useful before exporting streams merged
// from independent recorders.
func SortByTime(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].T < events[j].T })
}
