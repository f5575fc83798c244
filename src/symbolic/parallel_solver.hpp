// Parallel constraint solving (§3.4.4): "we collect the target constraints
// together and solve them in parallel. Thus we can solve more constraints
// at the same time and generate more adaptive seeds before reaching the
// timeout." Queries are exported as SMT-LIB2 text and each worker thread
// solves in its own Z3 context (contexts are not thread-shareable).
//
// Exporting is prefix-sharded: a single coordinator-side solver (built by
// make_flip_solver, like every flip solver; it is only ever printed)
// walks the path once, accumulating holds and serializing each flip from a
// push() scope, so one call issues O(path) assertions (the legacy exporter
// re-asserted the prefix per flip, O(path²)). With a SolverOptions::cache,
// already-decided flips are answered in the coordinator pre-pass and never
// reach a worker (keys come from SolverCache::extend/flip_key, the same
// pinning key function as the serial walk); freshly solved sat/unsat verdicts are inserted at merge
// time. Identical flip queries inside the SAME call are deduplicated in
// the pre-pass: only the first instance is dispatched, and each duplicate
// is resolved at merge time exactly as the serial walk would — from the
// cache when the first instance's verdict was cacheable, by an inline
// re-query on the coordinator otherwise — so verdicts, counters and the
// emitted seed stream match the serial walk even when two racing workers
// would have timed the same query differently. On budget/cancel abort the
// merge stops at the first unattempted flip — like the serial walk,
// nothing past the abort point is emitted — but the abort position itself
// is timing-dependent in both modes (the serial walk gates every flip, the
// parallel pool gates worker claims), so aborted calls carry no cross-mode
// parity guarantee.
#pragma once

#include "symbolic/solver.hpp"

namespace wasai::symbolic {

/// Drop-in parallel variant of solve_flips. `threads` = 0 picks the
/// hardware concurrency. Deterministic: results are collected indexed by
/// flip id and seeds are emitted in serial path order, so
/// `AdaptiveSeeds.seeds` is identical for any `threads` value (and matches
/// the serial solver) as long as no query hits its timeout/wall cap.
AdaptiveSeeds solve_flips_parallel(Z3Env& env, const ReplayResult& replay,
                                   const std::vector<abi::ParamValue>& seed,
                                   const SolverOptions& options = {},
                                   unsigned threads = 0);

}  // namespace wasai::symbolic
