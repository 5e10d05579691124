package obs

import "strconv"

// Kind labels one scheduling event. The vocabulary is shared by every
// machine model and the live runtime; a given scheduler emits the
// subset its mechanisms produce (Caladan, say, never preempts), but a
// kind always means the same thing wherever it appears.
type Kind uint8

// The event vocabulary, in per-task lifecycle order.
const (
	// Arrive: the request hit the NIC (or the client sent it). Emitted
	// on the Loadgen track.
	Arrive Kind = iota
	// Dispatch: a dispatcher bound the task to a worker core (Event.Core
	// is the chosen core). Centralized schedulers re-dispatch after a
	// preemption; TQ dispatches exactly once. Under work stealing the
	// task may start on a different core than it was dispatched to.
	Dispatch
	// QuantumStart: a core began executing one quantum of the task.
	QuantumStart
	// QuantumEnd: the quantum ended — by completion, a probe-driven
	// yield, or a preemption. Always paired with the QuantumStart on the
	// same core, and immediately followed by the ProbeYield, Preempt, or
	// Finish event that says why it ended (FCFS quanta end only in
	// Finish).
	QuantumEnd
	// ProbeYield: the task's probe observed an expired quantum and
	// yielded cooperatively — forced multitasking (TQ, the live
	// runtime). The task remains queued on its core.
	ProbeYield
	// Preempt: the scheduler forced the task off its core (Shinjuku's
	// interrupt, the idealized CT's oracle switch). The task re-enters
	// a queue.
	Preempt
	// Finish: the task completed and its response left the worker.
	Finish
	// Drop: the request was rejected at a saturated RX stage (or
	// abandoned by the client after its retry budget). Terminal.
	Drop

	// KindCount is the number of event kinds.
	KindCount = int(Drop) + 1
)

var kindNames = [KindCount]string{
	"arrive", "dispatch", "qstart", "qend", "probe-yield", "preempt", "finish", "drop",
}

// String returns the kind's wire name, as used in exported traces.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return string(appendKind(nil, k))
}

// appendKind appends k's wire name to b.
func appendKind(b []byte, k Kind) []byte {
	if int(k) < len(kindNames) {
		return append(b, kindNames[k]...)
	}
	b = append(b, "kind("...)
	b = strconv.AppendUint(b, uint64(k), 10)
	return append(b, ')')
}

// KindFromString maps a wire name back to its Kind; ok is false for
// unknown names.
func KindFromString(s string) (k Kind, ok bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Pseudo-core identities for Event.Core: events not tied to a worker
// core land on the dispatcher or load-generator track.
const (
	// CoreDispatcher is the dispatcher (or IOKernel / centralized
	// scheduler) track.
	CoreDispatcher int32 = -1
	// CoreLoadgen is the load-generator / client track.
	CoreLoadgen int32 = -2
)

// Event is one recorded scheduling occurrence. Timestamps are int64
// nanoseconds — virtual sim.Time in the simulator, monotonic wall time
// in the live runtime — so one struct serves both worlds.
type Event struct {
	// T is the event time in nanoseconds since the start of the run.
	T int64
	// Task identifies the request/task across its lifecycle.
	Task uint64
	// Core is the worker core index, or CoreDispatcher / CoreLoadgen.
	// For Dispatch it is the core the task was bound to.
	Core int32
	// Class is the workload request class (0 when classless).
	Class int16
	// Kind says what happened.
	Kind Kind
}

// Recorder consumes events. Emit must be cheap; hot paths call it
// guarded by a nil check, so implementations need not re-check
// enablement.
type Recorder interface {
	Emit(Event)
}
