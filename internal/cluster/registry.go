package cluster

import (
	"fmt"

	"repro/internal/pifo"
	"repro/internal/sim"
)

// The registry is the front door to the machine catalogue: every
// machine model and variant registers a stable name plus one constructor
// from Options, so sweep drivers, comparison tools, and command-line
// flags can enumerate and select machines without hard-coding
// constructor lists. Custom parameterizations still go through the typed
// constructors (NewTQ, NewShinjuku, ...); the registry covers the common
// case of "run the paper's configuration of machine X by name", varied
// along the two axes the figures vary.

// Options are the knobs a registry machine can be built with. The zero
// value is the paper's configuration of every entry.
type Options struct {
	// Quantum, when non-zero, overrides the preemption quantum — for
	// machines whose paper configuration picks the quantum per workload
	// (Shinjuku runs at its per-workload sweet spot; §5.1).
	Quantum sim.Time
	// Discipline, when non-empty, overrides the queue order with a pifo
	// discipline by name (pifo.Names: rr, fcfs, srpt, edf, las, prio-age).
	Discipline string
}

// quantum is the option's quantum, or def when unset.
func (o Options) quantum(def sim.Time) sim.Time {
	if o.Quantum != 0 {
		return o.Quantum
	}
	return def
}

// Entry is one registered machine.
type Entry struct {
	// Name is the stable registry key ("tq", "shinjuku", "caladan-ws",
	// ...). It identifies the machine in flags and fixtures and never
	// changes, even if the machine's display Name() does.
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// TakesQuantum and TakesDiscipline say which Options the machine
	// honours. A machine without a preemption quantum (run-to-completion
	// Caladan, the oracle) or with per-class quanta (tq-timing) takes no
	// Quantum; one whose queue order is its identity (Shinjuku's and
	// Caladan's FCFS, tq-las) or fixed by construction (the oracle) takes
	// no Discipline.
	TakesQuantum, TakesDiscipline bool
	// Make constructs the machine from options Check has passed; call
	// Build, not Make.
	Make func(Options) Machine
}

// Check reports whether the entry can be built under o: asking for a
// knob the entry does not have, or for an unknown discipline, is an
// error naming both. The zero Options always passes.
func (e Entry) Check(o Options) error {
	if o.Quantum != 0 && !e.TakesQuantum {
		return fmt.Errorf("cluster: machine %q has no quantum knob", e.Name)
	}
	if o.Discipline != "" {
		if !e.TakesDiscipline {
			return fmt.Errorf("cluster: machine %q has no discipline knob", e.Name)
		}
		if _, err := pifo.Parse(o.Discipline); err != nil {
			return fmt.Errorf("cluster: machine %q: %w", e.Name, err)
		}
	}
	return nil
}

// Build constructs the entry's machine under the given options; the zero
// Options builds the calibrated default (the paper's configuration). It
// panics with Check's error, so callers handing on options they did not
// choose themselves (a command-line flag) Check first.
func (e Entry) Build(o Options) Machine {
	if err := e.Check(o); err != nil {
		panic(err.Error())
	}
	return e.Make(o)
}

// nodeMachine is implemented by machines that can bind to a shared
// engine as a Node (every kernel-ported machine; see node.go).
type nodeMachine interface {
	NewNode(eng *sim.Engine, cfg RunConfig) Node
}

// CanNode reports whether the entry's machine has a Node form — i.e.
// whether it can join a multi-machine composition on one shared engine.
// Every registry machine does except "caladan-ws", whose best-of-both
// judging needs two complete standalone runs per configuration.
func (e Entry) CanNode() bool {
	_, ok := e.Build(Options{}).(nodeMachine)
	return ok
}

// NewNode constructs the entry's machine with its calibrated default
// parameters, bound to the given shared engine as a Node. It panics if
// the machine has no Node form (CanNode reports false).
func (e Entry) NewNode(eng *sim.Engine, cfg RunConfig) Node {
	nm, ok := e.Build(Options{}).(nodeMachine)
	if !ok {
		panic("cluster: machine " + e.Name + " cannot run as a node")
	}
	return nm.NewNode(eng, cfg)
}

var registry = struct {
	names   []string // registration order, for stable listings
	entries map[string]Entry
}{entries: map[string]Entry{}}

// Register adds a machine to the catalogue. It panics on a duplicate
// or incomplete entry — registration happens at init time, so a panic
// is a programming error surfacing immediately.
func Register(e Entry) {
	if e.Name == "" || e.Make == nil {
		panic("cluster: Register needs a name and a constructor")
	}
	if _, dup := registry.entries[e.Name]; dup {
		panic("cluster: duplicate machine registration: " + e.Name)
	}
	registry.entries[e.Name] = e
	registry.names = append(registry.names, e.Name)
}

// Lookup returns the entry registered under name.
func Lookup(name string) (Entry, bool) {
	e, ok := registry.entries[name]
	return e, ok
}

// MustLookup is Lookup for names that must exist (tests, init-time
// wiring); it panics with the known names on a miss.
func MustLookup(name string) Entry {
	e, ok := registry.entries[name]
	if !ok {
		panic("cluster: unknown machine " + name + " (known: " + joinNames() + ")")
	}
	return e
}

// Names lists every registered machine in registration order.
func Names() []string {
	out := make([]string, len(registry.names))
	copy(out, registry.names)
	return out
}

func joinNames() string {
	s := ""
	for i, n := range registry.names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// tqParams is the default TQ configuration under the options.
func tqParams(o Options) TQParams {
	p := NewTQParams()
	p.Quantum = o.quantum(p.Quantum)
	p.Discipline = o.Discipline
	return p
}

// idealTLS is the idealized TLS machine under the options.
func idealTLS(balancer BalancerKind, o Options) Machine {
	m := NewIdealTLS(16, o.quantum(sim.Micros(1)), balancer)
	m.P.Discipline = o.Discipline
	return NewTQ(m.P).Named(disciplineName(m.Name(), o.Discipline))
}

func init() {
	Register(Entry{
		Name:            "tq",
		Summary:         "TQ: two-level scheduling + forced multitasking (paper default)",
		TakesQuantum:    true,
		TakesDiscipline: true,
		Make:            func(o Options) Machine { return NewTQ(tqParams(o)) },
	})
	Register(Entry{
		Name:         "tq-las",
		Summary:      "TQ with least-attained-service worker scheduling",
		TakesQuantum: true,
		Make:         func(o Options) Machine { return NewTQLAS(tqParams(o)) },
	})
	Register(Entry{
		Name:         "tq-ic",
		Summary:      "TQ variant probed by instruction-counter instrumentation (≈60% overhead)",
		TakesQuantum: true,
		Make:         func(o Options) Machine { return NewTQIC(tqParams(o)) },
	})
	Register(Entry{
		Name:         "tq-slow-yield",
		Summary:      "TQ variant with 1µs added to every coroutine yield",
		TakesQuantum: true,
		Make:         func(o Options) Machine { return NewTQSlowYield(tqParams(o)) },
	})
	Register(Entry{
		Name:    "tq-timing",
		Summary: "TQ variant with inaccurate per-class preemption timing",
		Make:    func(Options) Machine { return NewTQTiming(NewTQParams()) },
	})
	Register(Entry{
		Name:    "tq-rand",
		Summary: "TQ variant with random dispatcher load balancing",
		Make:    func(Options) Machine { return NewTQRand(NewTQParams()) },
	})
	Register(Entry{
		Name:    "tq-power-two",
		Summary: "TQ variant with power-of-two-choices load balancing",
		Make:    func(Options) Machine { return NewTQPowerTwo(NewTQParams()) },
	})
	Register(Entry{
		Name:    "tq-fcfs",
		Summary: "TQ variant with run-to-completion workers (no preemption)",
		Make:    func(Options) Machine { return NewTQFCFS(NewTQParams()) },
	})
	Register(Entry{
		Name:         "shinjuku",
		Summary:      "Shinjuku: centralized single queue + IPI preemption",
		TakesQuantum: true,
		Make:         func(o Options) Machine { return NewShinjuku(NewShinjukuParams(o.quantum(sim.Micros(5)))) },
	})
	Register(Entry{
		Name:         "concord",
		Summary:      "Concord: centralized scheduling, cache-line-flag preemption",
		TakesQuantum: true,
		Make:         func(o Options) Machine { return NewConcord(o.quantum(sim.Micros(5))) },
	})
	Register(Entry{
		Name:         "libpreemptible",
		Summary:      "LibPreemptible: per-worker UINTR preemption, ≥3µs quanta",
		TakesQuantum: true,
		Make:         func(o Options) Machine { return NewLibPreemptible(tqParams(o)) },
	})
	Register(Entry{
		Name:    "caladan-iokernel",
		Summary: "Caladan in IOKernel mode: FCFS run-to-completion, central packet core",
		Make:    func(Options) Machine { return NewCaladan(NewCaladanParams(IOKernel)) },
	})
	Register(Entry{
		Name:    "caladan-directpath",
		Summary: "Caladan in directpath mode: FCFS run-to-completion, NIC-direct workers",
		Make:    func(Options) Machine { return NewCaladan(NewCaladanParams(Directpath)) },
	})
	Register(Entry{
		Name:    "caladan-ws",
		Summary: "Caladan reporting the better of its two modes per configuration",
		Make:    func(Options) Machine { return NewBestCaladan("") },
	})
	Register(Entry{
		Name:            "ct-ps",
		Summary:         "Idealized centralized processor sharing (free scheduler)",
		TakesQuantum:    true,
		TakesDiscipline: true,
		Make: func(o Options) Machine {
			m := NewCentralizedPS(16, o.quantum(sim.Micros(2)), 0)
			m.Discipline = o.Discipline
			return m
		},
	})
	Register(Entry{
		Name:            "tls-jsq-msq",
		Summary:         "Idealized two-level scheduling, JSQ with MSQ tie-breaking",
		TakesQuantum:    true,
		TakesDiscipline: true,
		Make:            func(o Options) Machine { return idealTLS(BalanceJSQMSQ, o) },
	})
	Register(Entry{
		Name:            "tls-jsq-rand",
		Summary:         "Idealized two-level scheduling, JSQ with random tie-breaking",
		TakesQuantum:    true,
		TakesDiscipline: true,
		Make:            func(o Options) Machine { return idealTLS(BalanceJSQRandom, o) },
	})
	Register(Entry{
		Name:            "d-fcfs",
		Summary:         "Decentralized FCFS: per-worker NIC queues, no preemption, no stealing",
		TakesDiscipline: true,
		Make: func(o Options) Machine {
			p := NewDFCFSParams()
			p.Discipline = o.Discipline
			return NewDFCFS(p)
		},
	})
	Register(Entry{
		Name:    "oracle-srpt",
		Summary: "Clairvoyant preemptive SRPT with zero overheads (UPS-style optimality baseline)",
		Make:    func(Options) Machine { return NewOracle(16) },
	})
}
