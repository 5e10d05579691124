// Package pifo implements the rank-programmable priority queue behind
// the machine models' scheduling disciplines — a software PIFO
// (Push-In-First-Out) in the sense of the programmable packet
// scheduling literature: elements are pushed with a computed rank,
// Pop returns the minimum-rank element, and equal ranks resolve in
// push order, so every discipline degenerates to FIFO on ties and
// runs stay deterministic.
//
// The package has two halves:
//
//   - Queue, the mechanism: an allocation-free (steady-state) binary
//     min-heap keyed by (rank, seq). It knows nothing about jobs or
//     time — the rank is computed by the caller at push time.
//   - Discipline, the policy: a small closed set of rank functions
//     expressed as data (a table of RankFn), mapping per-job state
//     (RankInputs) to a rank. RR reproduces round-robin processor
//     sharing, FCFS ranks by arrival, SRPT by true remaining service,
//     EDF by class deadline, LAS by attained service, and PrioAge by
//     age-boosted class priority.
//
// Separating the two turns queue discipline into a dimension: a
// machine model owns one Queue per scheduling point and one
// Discipline for the whole run, and swapping the discipline swaps the
// policy without touching the machine's event logic. The kernel-based
// machines in internal/cluster expose this as the registry's
// Options.Discipline and the tqsim -discipline flag.
//
// Rank monotonicity is the caller's contract, not the queue's: a
// discipline whose ranks grow with push time (RR, FCFS under
// monotonic arrivals) reproduces plain FIFO order exactly, which is
// how the default configurations of the rewired machines stay
// bit-identical to their pre-PIFO fixtures.
package pifo
