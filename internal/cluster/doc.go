// Package cluster contains discrete-event models of the scheduling
// systems the Tiny Quanta paper evaluates (§5.1):
//
//   - TQ: the paper's system — a load-balancing-only dispatcher plus
//     per-core processor-sharing over coroutines (two-level scheduling
//     with forced multitasking), including the §5.4 variants (TQ-IC,
//     TQ-SLOW-YIELD, TQ-TIMING, TQ-RAND, TQ-POWER-TWO, TQ-FCFS);
//   - Shinjuku: centralized single-queue scheduling with interrupt-based
//     preemption (Dune-style, ≈1µs interrupt latency);
//   - Caladan: FCFS run-to-completion with RSS steering and work
//     stealing, in IOKernel or directpath mode;
//   - CentralizedPS: the idealized zero-overhead centralized processor
//     sharing used by the §2 motivation simulations (Figures 1, 2, 4);
//   - DFCFS: the decentralized-FCFS baseline (per-worker NIC queues, no
//     preemption, no stealing) — the classic foil to c-FCFS and PS;
//   - Oracle: a clairvoyant preemptive-SRPT upper bound with zero
//     mechanism overheads, in the style of Universal Packet
//     Scheduling's omniscient baseline — it deliberately reads true
//     service times, which every other machine is forbidden to do, so
//     the distance between any blind scheduler and it is that
//     scheduler's optimality gap (experiments.OptimalityGapTable).
//
// All models share an event-level abstraction: jobs carry service
// demands, workers execute quanta serially, and every mechanism cost
// (coroutine yield, hardware interrupt, dispatcher op) is an explicit
// parameter. Absolute numbers therefore depend on the calibration
// constants in cluster.go, but the comparative shapes — who saturates
// first and where latency knees appear — depend only on the modelled
// mechanisms, which is what the reproduction targets.
//
// # Kernel and policies
//
// Every machine runs on the shared machine kernel (kernel.go): a
// machineRun substrate owning the engine, workload generator, arrival
// pump, RX-ring admission lanes, job pool, and metrics/obs emission,
// with the Run → Result lifecycle written once. A machine is a run
// struct embedding machineRun plus a small machinePolicy — where an
// arriving request is steered (admitLane), how its demand is inflated
// (inflate), and what the system does with an admitted job (admit) —
// and its own engine callbacks for everything after admission. Those
// callbacks are bound once, never written as a literal at the
// scheduling site: a worker's one in-flight quantum lives on the worker
// and its callback reads it back (dfWorker.cur/onDone), a serial
// server's pending hand-offs wait in a FIFO drained by one callback
// (tqDispatcher.q), and events a generation counter can outdate take a
// pooled record (genTimers). A literal per event was 0.77 allocs/event
// and ~57% of a TQ run's allocated bytes; TestRegistrySteadyStateAllocs
// and the //simvet:hotpath marks on the handlers keep it at zero. A
// finished run's struct then goes back to its family's runPool, so a
// sweep builds engine, queues and callbacks once per worker, not per
// point (TestRecycledRunAllocs). The kernel makes the conservation law
// Offered == Completed + Dropped and the shared arrival semantics
// structural rather than per-machine conventions; dfcfs.go is the
// ~200-line template for adding a system.
//
// # Registry
//
// The named-machine registry (registry.go) is the catalogue's front
// door: Register/Lookup/MustLookup/Names map stable names ("tq",
// "shinjuku", "caladan-ws", "d-fcfs", ...) to one constructor each,
// Entry.Build(Options): the zero Options is the paper's configuration,
// and which of Quantum and Discipline an entry takes is data on it
// (Entry.Check refuses the rest by name). So sweep drivers, comparison tools, and command-line
// flags (tqsim -machines, tqtrace export -machines) enumerate machines
// without hard-coded constructor lists. Registration also enrolls a
// machine in the conformance suite, which checks conservation,
// run-twice determinism, and timeline grammar for every entry.
//
// # Queue disciplines
//
// The registry has a second dimension besides the quantum: machines
// whose queues were rewired onto internal/pifo's rank-programmable
// priority queues (TQ, CentralizedPS, the idealized TLS pair, DFCFS)
// take Options.Discipline (Entry.TakesDiscipline), which builds them
// under any pifo discipline — rr, fcfs, srpt, edf, las, prio-age (tqsim
// -discipline) — and combines with Options.Quantum. Each
// machine's default discipline ranks exactly in its historical queue
// order (rr pushes by time for PS rotation, fcfs by arrival, las by
// attained service), so the golden seed-equivalence fixtures prove the
// rewiring changed no number; a non-default discipline swaps the
// policy while every mechanism cost stays in place. EDF takes its
// per-class deadlines from RunConfig.SLOs and degenerates to FCFS
// without them.
//
// # Sweeps
//
// Load sweeps and knee searches run through one mechanism (sweep.go): a
// Plan collects independent points (Plan.Sweep, Plan.Points) and
// stop-at-the-first-violation chains (Plan.MaxRateUnder, Plan.Chain),
// then runs them once on a bounded worker pool, costliest point first
// — the rank is a point's offered requests, Rate × Duration, computed
// when it is declared. A sweep takes a template RunConfig and a rate
// grid: point i is the template with Rate = rates[i] and Seed =
// rng.PointSeed(template seed, i), everything else (SLOs, Arrivals,
// Tenants, Duration, Warmup) carried through, so results are
// bit-identical for any worker count and any start order. Sweep and
// MaxRateUnder are the sequential references the pool is tested against.
//
// # Observability
//
// Every model also speaks the unified observability vocabulary of
// internal/obs: set RunConfig.Obs to record a per-quantum scheduling
// timeline, and use TraceComparison to run several machines on the
// same configuration into side-by-side Perfetto tracks. The event
// vocabulary is identical across machines — only the mechanisms
// differ: TQ yields at probes (probe-yield), Shinjuku and
// CentralizedPS preempt by interrupt (preempt), Caladan runs every
// job to completion (neither).
package cluster
