#include "symbolic/parallel_solver.hpp"

#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

namespace wasai::symbolic {

namespace {

using abi::ParamValue;
using Clock = std::chrono::steady_clock;

/// One flip query as seen by the coordinator: answered by the
/// cross-iteration cache during the pre-pass, deduplicated against an
/// identical earlier query of the same batch, or exported as SMT-LIB2 text
/// for a worker to solve. The cache entry is copied by value: merge-time
/// insert() calls can LRU-evict the cache slot a pointer would dangle into.
struct PendingFlip {
  QueryKey key;                  // meaningful only with a cache
  bool pruned = false;           // statically futile: never dispatched
  std::optional<CacheEntry> hit; // engaged: answered by the cache
  /// Index of an identical query earlier in this batch. Duplicates are not
  /// dispatched; the merge resolves them the way the serial walk would —
  /// from the cache once the first instance's verdict lands there, or by an
  /// inline re-query when it does not (overshoot/unknown are never cached).
  std::optional<std::size_t> dup_of;
  std::string smt2;              // exported query (dispatched misses only)
};

/// One worker outcome: the shared query result plus whether the worker got
/// to it at all before the budget/cancellation gate fired.
struct QueryResult {
  SmtQueryResult result;
  bool attempted = false;  // false when skipped by budget/cancellation
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

AdaptiveSeeds solve_flips_parallel(Z3Env& env, const ReplayResult& replay,
                                   const std::vector<ParamValue>& seed,
                                   const SolverOptions& options,
                                   unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Only the coordinator thread owns the span log; workers record their
  // per-query wall times through the (thread-safe) shared histogram.
  const obs::Span span(options.obs, obs::span_name::kSolve);
  const auto start = Clock::now();
  const double hard_ms = options.effective_hard_timeout_ms();

  // Coordinator pre-pass: walk the path once with a single exporter solver
  // (the flip solver construction, never checked; prefix holds asserted as
  // they are passed; each flip exported from a push() scope), so exporting
  // is O(path) assertions instead of the old O(path²) re-assert. Flips the
  // cross-iteration cache already decided are answered here and never reach
  // a worker; the exporter itself is materialized lazily on the first miss
  // so an all-hits walk never pays Z3 internalization. flips[i] is flip i in
  // serial path order, whichever worker solves it.
  std::vector<PendingFlip> flips;
  std::optional<z3::solver> exporter;
  std::vector<const z3::expr*> prefix;
  QueryDigest digest;
  // Intra-batch dedup (cache mode only): primary digest -> index of the
  // first pending miss with that key. The serial walk answers a repeated
  // (prefix, flip) query from the cache entry its first instance inserted;
  // dispatching both copies here would instead give each a timing-dependent
  // verdict of its own (one can overshoot the hard cap while the other
  // lands sat), diverging from the serial seed stream.
  std::unordered_map<std::uint64_t, std::size_t> first_by_key;
  std::size_t slots_used = 0;  // flips counted against max_flips
  const auto push_hold = [&](const PathStep& step) {
    if (step.hold) {
      prefix.push_back(&*step.hold);
      if (exporter.has_value()) exporter->add(*step.hold);
      if (options.cache != nullptr) options.cache->extend(digest, *step.hold);
    }
  };
  for (std::size_t k = 0;
       k < replay.path.size() && slots_used < options.max_flips; ++k) {
    const PathStep& step = replay.path[k];
    if (step.can_flip && step.flip) {
      PendingFlip pending;
      // Statically futile flips consume their slot (unless the opt-in
      // prioritization knob frees it) but are neither cached nor
      // dispatched — the same schedule the serial walk produces under its
      // gate.
      if (options.prune_flip_sites != nullptr &&
          step.site < options.prune_flip_sites->size() &&
          (*options.prune_flip_sites)[step.site] != 0) {
        pending.pruned = true;
        if (!options.pruned_flips_free_budget) ++slots_used;
        flips.push_back(std::move(pending));
        push_hold(step);
        continue;
      }
      ++slots_used;
      if (options.cache != nullptr) {
        pending.key = options.cache->flip_key(digest, *step.flip);
        if (const CacheEntry* hit = options.cache->lookup(pending.key)) {
          pending.hit = *hit;
        } else {
          const auto first = first_by_key.find(pending.key.primary);
          if (first != first_by_key.end() &&
              flips[first->second].key == pending.key) {
            pending.dup_of = first->second;
          } else {
            first_by_key.emplace(pending.key.primary, flips.size());
          }
        }
      }
      if (!pending.hit.has_value() && !pending.dup_of.has_value()) {
        if (!exporter.has_value()) {
          exporter.emplace(make_flip_solver(env.ctx(), options.timeout_ms));
          for (const z3::expr* hold : prefix) exporter->add(*hold);
        }
        exporter->push();
        exporter->add(*step.flip);
        pending.smt2 = exporter->to_smt2();
        exporter->pop();
      }
      flips.push_back(std::move(pending));
    }
    push_hold(step);
  }

  // Fan the cache misses out over the worker pool (first instances only —
  // duplicates are resolved at merge time).
  AdaptiveSeeds out;
  std::vector<std::size_t> miss_indices;
  for (std::size_t i = 0; i < flips.size(); ++i) {
    if (!flips[i].pruned && !flips[i].hit.has_value() &&
        !flips[i].dup_of.has_value()) {
      miss_indices.push_back(i);
    }
  }
  std::vector<QueryResult> results(flips.size());
  std::size_t next = 0;  // also the number of worker queries started
  bool stop = false;
  std::mutex mu;
  std::vector<std::thread> pool;
  const auto worker = [&] {
    for (;;) {
      std::size_t index;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stop || next >= miss_indices.size()) return;
        if ((options.cancel != nullptr && options.cancel->expired()) ||
            (options.wall_budget_ms != 0 &&
             ms_since(start) >= options.wall_budget_ms)) {
          stop = true;
          return;
        }
        index = miss_indices[next++];
      }
      const auto query_begin = Clock::now();
      results[index] = QueryResult{
          solve_smt2_query(flips[index].smt2, options.timeout_ms, hard_ms),
          true};
      if (options.obs != nullptr) {
        options.obs->latency_us("solver.query_us",
                                ms_since(query_begin) * 1000.0);
      }
    }
  };
  const unsigned n = std::min<unsigned>(
      threads,
      static_cast<unsigned>(std::max<std::size_t>(miss_indices.size(), 1)));
  pool.reserve(n);
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  out.aborted = stop;

  // Merge in flip order so the emitted seed sequence matches the serial
  // solver regardless of which worker finished first. Freshly solved
  // sat/unsat verdicts feed the cache for later iterations.
  const auto consume_cached = [&](const CacheEntry& entry) {
    ++out.cache_hits;
    if (entry.verdict == CachedVerdict::Sat) {
      ++out.sat;
      out.seeds.push_back(
          seed_from_model_values(seed, replay.bindings, entry.model));
    } else {
      ++out.unsat;
    }
  };
  const auto consume_solved = [&](const SmtQueryResult& result,
                                  const QueryKey& key) {
    ++out.queries;
    if (options.cache != nullptr) ++out.cache_misses;
    if (result.overshoot) {
      // Same sat_late/unknown split as the serial solver; never cached.
      if (result.verdict == SmtQueryResult::Verdict::Sat) {
        ++out.sat_late;
      } else {
        ++out.unknown;
      }
      return;
    }
    switch (result.verdict) {
      case SmtQueryResult::Verdict::Unsat:
        ++out.unsat;
        if (options.cache != nullptr) {
          options.cache->insert(key, CachedVerdict::Unsat);
        }
        break;
      case SmtQueryResult::Verdict::Unknown:
        ++out.unknown;
        break;
      case SmtQueryResult::Verdict::Sat: {
        ++out.sat;
        out.seeds.push_back(
            seed_from_model_values(seed, replay.bindings, result.model));
        if (options.cache != nullptr) {
          options.cache->insert(key, CachedVerdict::Sat,
                                ModelValues(result.model));
        }
        break;
      }
    }
  };
  std::size_t z3_checks = next;
  for (std::size_t i = 0; i < flips.size(); ++i) {
    const PendingFlip& pending = flips[i];
    if (pending.pruned) {
      ++out.pruned;
      continue;
    }
    if (pending.dup_of.has_value()) {
      // An identical query earlier in this batch (its merge step ran
      // already — dup_of < i). Resolve exactly as the serial walk would on
      // its second encounter: the first instance's sat/unsat verdict is in
      // the cache now, so this is a hit; if the first instance overshot or
      // came back unknown (never cached), serial re-issues the query, and
      // so do we — inline on the coordinator, behind the same gates the
      // serial walk applies between queries.
      if (const CacheEntry* entry = options.cache->lookup(pending.key)) {
        consume_cached(*entry);
        continue;
      }
      if ((options.cancel != nullptr && options.cancel->expired()) ||
          (options.wall_budget_ms != 0 &&
           ms_since(start) >= options.wall_budget_ms)) {
        out.aborted = true;
        break;
      }
      const auto query_begin = Clock::now();
      const SmtQueryResult requeried = solve_smt2_query(
          flips[*pending.dup_of].smt2, options.timeout_ms, hard_ms);
      ++z3_checks;
      if (options.obs != nullptr) {
        options.obs->latency_us("solver.query_us",
                                ms_since(query_begin) * 1000.0);
      }
      consume_solved(requeried, pending.key);
      continue;
    }
    if (!pending.hit.has_value() && !results[i].attempted) {
      // Workers drain misses in flip order, so the first unattempted miss
      // is the budget/cancellation abort point; stopping here matches the
      // serial walk, which emits nothing past its abort break.
      break;
    }
    if (pending.hit.has_value()) {
      consume_cached(*pending.hit);
      continue;
    }
    consume_solved(results[i].result, pending.key);
  }
  out.wall_ms = ms_since(start);
  count_solver_call(options.obs, out, z3_checks);
  return out;
}

}  // namespace wasai::symbolic
