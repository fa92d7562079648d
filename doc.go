// Package repro is a from-scratch Go reproduction of "Brief Announcement:
// Managing Resource Limitation of Best-Effort HTM" (SPAA 2015) and its
// extended version — the Part-HTM hybrid transactional memory.
//
// The repository contains:
//
//   - internal/mem, internal/htm — a simulated word-addressable memory and
//     an Intel TSX-style best-effort hardware transactional memory over it
//     (cache-line conflict detection, L1 write capacity with set
//     associativity, timer-quantum aborts, strong atomicity);
//   - internal/core — Part-HTM and Part-HTM-O, the paper's contribution;
//   - internal/htmgl, internal/norec, internal/ringstm, internal/norecrh —
//     the paper's competitors;
//   - internal/bench, internal/stamp — every evaluated workload (N-reads
//     M-writes, linked list, EigenBench, and the seven STAMP applications);
//   - internal/harness, cmd/parthtm-bench — regeneration of every table and
//     figure of the paper's evaluation;
//   - benchmark/ (its own module) — the performance ledger, which judges a
//     change against its parent on one host.
//
// See README.md for a quickstart, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package repro
