// Package obs is the unified observability layer for every scheduler
// in this repository: the discrete-event machine models in
// internal/cluster, the live goroutine runtime in internal/tqrt, and
// the UDP load generator in internal/netsim all emit the same
// structured scheduling events through the recorders defined here, so
// one timeline viewer and one metrics pipeline explain them all.
//
// The paper's evaluation hinges on seeing microsecond-scale scheduling
// decisions — quantum boundaries, dispatcher handoffs, probe-driven
// yields — not just end-of-run aggregates. This package makes those
// decisions inspectable:
//
//   - Event / Kind: a fixed vocabulary of per-task lifecycle events
//     (Arrive, Dispatch, QuantumStart, QuantumEnd, ProbeYield,
//     Preempt, Finish, Drop) with nanosecond timestamps and a core
//     identity (worker index, or the Dispatcher/Loadgen pseudo-cores).
//     Every machine model emits exactly this vocabulary, so policy
//     differences are directly comparable on one timeline.
//   - Ring: a zero-allocation bounded recorder for single-writer hot
//     paths (the simulator, or one worker of the live runtime, whose
//     per-worker rings SortByTime merges at read time); Locked wraps
//     one for concurrent writers.
//   - WriteChrome / ReadChrome: lossless export to Chrome trace-event
//     JSON — loadable in Perfetto (https://ui.perfetto.dev) or
//     chrome://tracing — with one track per core plus dispatcher and
//     loadgen tracks, and a parser that round-trips the events back
//     for tooling (cmd/tqtrace summarize / diff).
//   - Summarize / Windows: aggregate and sliding-window time-series
//     metrics (per-core utilization, occupancy, preemption rate,
//     p50/p99 sojourn via stats.Hist) computed from an event
//     stream.
//   - Validate / Conserved: the machine-model invariants — per-task
//     lifecycle ordering, matched quantum start/end pairs per core,
//     and event conservation (every dispatched task reaches exactly
//     one terminal Finish or Drop) — used as test oracles across all
//     machine models and the live runtime.
//
// Recording is strictly opt-in and free when off: emit sites guard on
// a nil recorder, and the guard benchmark in internal/cluster holds
// tracing-off runs to the pre-observability baseline. There is one
// emission path: every emitter calls Recorder.Emit once per event.
//
// Reading a trace is held to the same budget as recording it. A run
// emits ten events per request, so the read side is built to cost tens
// of nanoseconds per event, not a microsecond:
//
//   - WriteChrome appends each event record into one reused buffer with
//     strconv (no reflection, no Sprintf, no per-record allocation) and
//     hands the writer ~64 KB at a time, so a bare *os.File is fine.
//     The bytes are exactly what encoding/json produced before — field
//     order, shortest-float timestamps and all; a differential fuzz
//     test against the json.Marshal encoder holds that. Only the few
//     metadata records per process, whose names are caller-supplied and
//     need JSON escaping, still go through encoding/json.
//   - Summarize, Windows, Validate and WriteChrome's track list keep
//     their per-core state in one shared structure, perCore: a slice
//     indexed by core for the loadgen/dispatcher pseudo-cores and the
//     first 65536 worker cores (64 of internal/rack's 1024-core bands),
//     a map for any other int32. Core and task values arrive from files
//     (ReadChrome), so none of these functions panics on, or sizes an
//     allocation by, a value — only by the number of events. Summary's
//     per-core tables stop at core 65535 for the same reason.
//   - Summarize and Windows keep per-task state — the arrival instant
//     of every task in the system — in one small open-addressed table,
//     inflight. A trace inserts and removes each of its tasks once
//     (millions) but holds only the run's occupancy at a time (tens),
//     so the table stays a few cache lines where a Go map paid a hash,
//     a bucket walk and a tombstone per task. Validate keeps a map: it
//     must remember tasks after they finish.
package obs
