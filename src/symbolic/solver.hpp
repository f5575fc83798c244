// Constraint flipping and solving (§3.4.4): negate each flippable
// conditional state, conjoin the path prefix, and ask Z3 for a model —
// each model becomes an adaptive seed.
//
// One serial path: each flip is decided by a fresh z3::solver in the
// analysis's own Z3 context (the Z3Env that built the terms), asserting the
// path-prefix holds and the flip. Nothing is printed or parsed — the terms
// are already internalized in that context, so the solver works on them
// directly. Parallel workers (parallel_solver.hpp) cannot share the
// context, since Z3 contexts are single-threaded; they receive each query
// exported as SMT-LIB2 and decide it in a context of their own
// (solve_smt2_query). That round trip reproduces the in-context models
// bit-for-bit, which is what keeps the serial and parallel seed streams
// identical; the parity tests and bench_perf_solver gate it. A solver that
// accumulates the prefix incrementally and check()s each flip under
// push/pop is NOT an option: Z3's incremental engine picks different
// models than a one-shot solver for the same query, which would change
// the seeds.
// An optional cross-iteration SolverCache short-circuits queries that were
// already decided in an earlier iteration (see solver_cache.hpp).
#pragma once

#include "symbolic/replayer.hpp"
#include "symbolic/solver_cache.hpp"
#include "util/cancel.hpp"

namespace wasai::symbolic {

struct SolverOptions {
  unsigned timeout_ms = 200;    // per-query budget (paper used 3,000 ms)
  std::size_t max_flips = 24;   // cap on flip targets per executed seed
  /// Cross-iteration query cache; not owned, may be null (= no caching).
  /// One cache must only ever see queries from one Z3Env.
  SolverCache* cache = nullptr;
  /// Hard wall-clock cap per query. Z3's "timeout" parameter is a soft
  /// limit that the solver can overshoot. Accounting for a query whose
  /// wall time exceeds this cap:
  ///  * verdict sat  -> counted as `sat_late`; the model is still discarded
  ///    (using it would make the seed stream timing-dependent);
  ///  * anything else -> counted as `unknown`.
  /// Overshot queries are never cached. 0 derives a generous default
  /// (10×timeout_ms + 1000) so the cap only fires on genuinely stuck
  /// queries, not on scheduler jitter — keeping the seed stream
  /// deterministic in practice.
  unsigned hard_timeout_ms = 0;
  /// Total wall budget for one solve_flips call; once exhausted, remaining
  /// flips are skipped (`aborted` is set). 0 = unlimited.
  unsigned wall_budget_ms = 0;
  /// Static flip gate (the pre-analysis branch table lowered onto site
  /// ids): a non-zero entry at PathStep.site marks that flip as provably
  /// futile — its condition can never depend on action input — and the
  /// walk skips the query entirely. A pruned flip still consumes a flip
  /// slot, so the schedule under max_flips is identical with and without
  /// the gate. Sites beyond the vector (or a null pointer) are never
  /// pruned. Not owned.
  const std::vector<std::uint8_t>* prune_flip_sites = nullptr;
  /// Opt-in prioritization (NOT schedule-neutral): pruned flips stop
  /// consuming max_flips slots, so the freed budget reaches deeper
  /// taint-reachable flip targets the cap would otherwise cut off. Off by
  /// default — turning it on changes the flip schedule whenever the cap
  /// binds.
  bool pruned_flips_free_budget = false;
  /// Cooperative cancellation checked between queries (campaign deadlines).
  /// Not owned; may be null.
  const util::CancelToken* cancel = nullptr;
  /// Observability track of the calling thread (may be null = off). The
  /// whole call is wrapped in a `solve_flips` span; per-query wall times
  /// feed the `solver.query_us` histogram, and the `solver.*` counters are
  /// emitted once per call (count_solver_call). Parallel workers only
  /// touch the shared histogram, never the track's span log.
  obs::Obs* obs = nullptr;

  [[nodiscard]] unsigned effective_hard_timeout_ms() const {
    return hard_timeout_ms != 0 ? hard_timeout_ms : 10 * timeout_ms + 1000;
  }
};

struct AdaptiveSeeds {
  /// One mutated parameter vector per satisfiable flip, in flip (i.e.
  /// serial path) order.
  std::vector<std::vector<abi::ParamValue>> seeds;
  /// Z3 check() calls actually issued (cache hits do not count).
  std::size_t queries = 0;
  // Verdict accounting: sat + sat_late + unsat + unknown covers every flip
  // attempted (whether answered by Z3 or by the cache).
  std::size_t sat = 0;
  std::size_t sat_late = 0;  // sat, but past the hard cap: model discarded
  std::size_t unsat = 0;
  std::size_t unknown = 0;   // timeouts and non-sat wall overshoots
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;  // flips that went to Z3 despite a cache
  /// Flips skipped by the static gate (prune_flip_sites). Not part of the
  /// sat/unsat/unknown partition: a pruned flip was never decided.
  std::size_t pruned = 0;
  double wall_ms = 0;            // total wall time spent solving
  bool aborted = false;  // stopped early (wall budget or cancellation)
};

/// Apply one solved binding onto a parameter vector. Shared by the serial
/// and parallel solvers so both map models onto seeds identically.
void apply_model_binding(std::vector<abi::ParamValue>& params,
                         const InputBinding& binding, std::uint64_t value);

/// Extract every zero-arity numeral interpretation of `model` as
/// (name, value) pairs — the representation the cache stores and both
/// solvers map back onto seeds.
ModelValues extract_model_values(const z3::model& model);

/// Apply extracted model values onto a copy of the seed parameters through
/// the input bindings; bindings whose variable the model does not mention
/// keep their executed-seed values.
std::vector<abi::ParamValue> seed_from_model_values(
    const std::vector<abi::ParamValue>& seed_params,
    const std::vector<InputBinding>& bindings, const ModelValues& values);

/// Outcome of one flip query.
struct SmtQueryResult {
  enum class Verdict : std::uint8_t { Sat, Unsat, Unknown } verdict =
      Verdict::Unknown;
  ModelValues model;       // populated for sat within the hard cap
  bool overshoot = false;  // wall time exceeded hard_ms; model discarded
};

/// Decide one SMT-LIB2 query in a fresh Z3 context: how the parallel
/// workers, which cannot use the analysis's context, decide a flip. Same
/// timeout and hard-cap classification as the serial in-context check.
/// Safe to call from any thread (the context is function-local).
SmtQueryResult solve_smt2_query(const std::string& smt2, unsigned timeout_ms,
                                double hard_ms);

/// Emit one solve call's `solver.queries` (`z3_checks` Z3 calls),
/// `solver.cache_hits` and `solver.flips_pruned` counters, each once and
/// only when non-zero. The walks tally per flip and report here because
/// every Obs::count takes the registry lock. No-op for a null `obs`.
void count_solver_call(obs::Obs* obs, const AdaptiveSeeds& out,
                       std::size_t z3_checks);

/// Solve every flippable conditional of `replay` against the path prefix,
/// mapping each model back onto the executed seed's parameters through the
/// input bindings.
AdaptiveSeeds solve_flips(Z3Env& env, const ReplayResult& replay,
                          const std::vector<abi::ParamValue>& seed_params,
                          const SolverOptions& opts = {});

}  // namespace wasai::symbolic
