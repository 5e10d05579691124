package obs

import "fmt"

// taskState tracks one task's progress through the lifecycle. Validate
// keeps one per task by value in its map, so the fields are ordered to
// pack into 16 bytes.
type taskState struct {
	lastT int64
	core  int32 // core of the open quantum, valid between QuantumStart and QuantumEnd
	last  Kind
	done  bool
}

// Validate checks the machine-model timeline invariants over an event
// stream (any mix of tasks, one scheduler):
//
//   - every task's first event is Arrive, and its events never move
//     backwards in time;
//   - Dispatch follows Arrive, ProbeYield, or Preempt (centralized
//     schedulers re-dispatch preempted tasks);
//   - QuantumStart follows Dispatch, ProbeYield, or Preempt, and its
//     core has no other quantum open (quanta strictly nest per core);
//   - QuantumEnd closes the open quantum on the same core, and is
//     followed for that task by the ProbeYield, Preempt, or Finish
//     that explains it, at the same instant;
//   - Finish and Drop are terminal; Drop follows Arrive only. As a
//     special case, Finish directly after Arrive is legal on the
//     loadgen track — the client-side view records response receipt
//     without seeing the server's quanta;
//   - a quantum's task matches the task that started it.
//
// Errors name the offending task and event kind. A truncated
// recording (Ring.Truncated) is still validated soundly: the cap
// discards events strictly from the tail, so the stream is a prefix of
// the full timeline and tasks are simply checked as far as it goes —
// a pending QuantumEnd with its cause event past the cap is not an
// error.
func Validate(events []Event) error {
	// Finished tasks stay in the map: that is what catches an event
	// after a terminal one, or a second Arrive.
	tasks := map[uint64]taskState{}
	var open perCore[uint64] // core -> task of the open quantum
	for i := range events {
		e := &events[i]
		ts, seen := tasks[e.Task]
		if !seen {
			if e.Kind != Arrive {
				return fmt.Errorf("event %d: task %d begins with %v, want arrive", i, e.Task, e.Kind)
			}
			tasks[e.Task] = taskState{last: Arrive, lastT: e.T}
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
			if other, busy := open.get(e.Core); busy {
				return fmt.Errorf("event %d: task %d quantum started on core %d while task %d's quantum is open",
					i, e.Task, e.Core, other)
			}
			open.set(e.Core, e.Task)
			ts.core = e.Core
		case QuantumEnd:
			if ts.last != QuantumStart {
				return fmt.Errorf("event %d: task %d quantum ended after %v", i, e.Task, ts.last)
			}
			if e.Core != ts.core {
				return fmt.Errorf("event %d: task %d quantum ended on core %d but started on core %d",
					i, e.Task, e.Core, ts.core)
			}
			open.clear(e.Core)
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
		tasks[e.Task] = ts
	}
	return nil
}

// Conserved checks event conservation over a complete (untruncated)
// recording of a drained run: every arrived task reached exactly one
// terminal event — Finish or Drop — and every dispatched task reached
// Finish. It reports the first violation with the task's id and last
// recorded kind. Call Validate first; Conserved assumes per-task
// ordering holds.
func Conserved(events []Event) error {
	last := map[uint64]Kind{}
	for _, e := range events {
		last[e.Task] = e.Kind
	}
	// Scan the timeline, not the map: ranging over `last` would name a
	// different violating task on every run (map iteration order), so
	// "first violation" is defined as the task that appears earliest.
	checked := map[uint64]bool{}
	for _, e := range events {
		if checked[e.Task] {
			continue
		}
		checked[e.Task] = true
		if k := last[e.Task]; k != Finish && k != Drop {
			return fmt.Errorf("obs: task %d has no terminal event: last was %v", e.Task, k)
		}
	}
	return nil
}
