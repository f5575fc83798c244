#include "symbolic/solver.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

namespace wasai::symbolic {

namespace {

using abi::ParamValue;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

void apply_model_binding(std::vector<ParamValue>& params,
                         const InputBinding& b, std::uint64_t value) {
  ParamValue& p = params.at(b.param_index);
  switch (b.kind) {
    case InputBinding::Kind::Whole:
      if (std::holds_alternative<abi::Name>(p)) {
        p = abi::Name(value);
      } else if (std::holds_alternative<std::uint64_t>(p)) {
        p = value;
      } else if (std::holds_alternative<std::int64_t>(p)) {
        p = static_cast<std::int64_t>(value);
      } else if (std::holds_alternative<std::uint32_t>(p)) {
        p = static_cast<std::uint32_t>(value);
      } else if (std::holds_alternative<double>(p)) {
        p = std::bit_cast<double>(value);
      }
      break;
    case InputBinding::Kind::AssetAmount:
      std::get<abi::Asset>(p).amount = static_cast<std::int64_t>(value);
      break;
    case InputBinding::Kind::AssetSymbol:
      std::get<abi::Asset>(p).symbol = abi::Symbol(value);
      break;
    case InputBinding::Kind::StringLen: {
      auto& s = std::get<std::string>(p);
      // Lengths are clamped; bytes beyond the executed length were not
      // symbolic, so they are padded (the paper's §4.4 false-positive
      // analysis stems from exactly this limitation).
      const std::size_t target = std::min<std::uint64_t>(value & 0xff, 64);
      s.resize(target, 'a');
      break;
    }
    case InputBinding::Kind::StringByte: {
      auto& s = std::get<std::string>(p);
      if (b.byte_index < s.size()) {
        s[b.byte_index] = static_cast<char>(value & 0xff);
      }
      break;
    }
  }
}

ModelValues extract_model_values(const z3::model& model) {
  ModelValues out;
  out.reserve(model.size());
  for (unsigned i = 0; i < model.size(); ++i) {
    const z3::func_decl decl = model.get_const_decl(i);
    if (decl.arity() != 0) continue;
    const z3::expr value = model.get_const_interp(decl);
    if (value.is_numeral()) {
      out.emplace_back(decl.name().str(), value.get_numeral_uint64());
    }
  }
  return out;
}

std::vector<ParamValue> seed_from_model_values(
    const std::vector<ParamValue>& seed_params,
    const std::vector<InputBinding>& bindings, const ModelValues& values) {
  std::vector<ParamValue> mutated = seed_params;
  for (const auto& binding : bindings) {
    // Mutate only the parameters the model actually mentions;
    // unconstrained variables keep their executed-seed values.
    const std::string name = binding.var.decl().name().str();
    const auto it =
        std::find_if(values.begin(), values.end(),
                     [&](const auto& nv) { return nv.first == name; });
    if (it == values.end()) continue;
    apply_model_binding(mutated, binding, it->second);
  }
  return mutated;
}

z3::solver make_flip_solver(z3::context& ctx, unsigned timeout_ms) {
  z3::solver solver =
      (z3::tactic(ctx, "simplify") & z3::tactic(ctx, "qfbv")).mk_solver();
  z3::params p(ctx);
  p.set("timeout", timeout_ms);
  p.set("ctrl_c", false);
  solver.set(p);
  return solver;
}

namespace {

/// Check the asserted query and classify it against the hard wall cap.
SmtQueryResult check_query(z3::solver& solver, double hard_ms) {
  SmtQueryResult out;
  const auto start = Clock::now();
  const auto verdict = solver.check();
  if (verdict == z3::unsat) {
    out.verdict = SmtQueryResult::Verdict::Unsat;
  } else if (verdict == z3::sat) {
    out.verdict = SmtQueryResult::Verdict::Sat;
  }
  if (ms_since(start) > hard_ms) {
    out.overshoot = true;  // model discarded; verdict kept for accounting
    return out;
  }
  if (verdict == z3::sat) {
    out.model = extract_model_values(solver.get_model());
  }
  return out;
}

/// Decide "prefix AND flip" with a fresh solver in the context that built
/// the terms. The solver is torn down before this returns, so a caller
/// timing the call times the query's whole Z3 cost.
SmtQueryResult solve_in_context(z3::context& ctx,
                                const std::vector<const z3::expr*>& prefix,
                                const z3::expr& flip, unsigned timeout_ms,
                                double hard_ms) {
  z3::solver solver = make_flip_solver(ctx, timeout_ms);
  // Path prefix must stay feasible (§3.4.4: AND of prior constraints).
  for (const z3::expr* hold : prefix) solver.add(*hold);
  solver.add(flip);
  return check_query(solver, hard_ms);
}

}  // namespace

SmtQueryResult solve_smt2_query(const std::string& smt2, unsigned timeout_ms,
                                double hard_ms) {
  z3::context ctx;
  z3::solver solver = make_flip_solver(ctx, timeout_ms);
  solver.from_string(smt2.c_str());
  return check_query(solver, hard_ms);
}

void count_solver_call(obs::Obs* obs, const AdaptiveSeeds& out,
                       std::size_t z3_checks) {
  if (obs == nullptr) return;
  if (z3_checks != 0) obs->count("solver.queries", z3_checks);
  if (out.cache_hits != 0) obs->count("solver.cache_hits", out.cache_hits);
  if (out.pruned != 0) obs->count("solver.flips_pruned", out.pruned);
}

AdaptiveSeeds solve_flips(Z3Env& env, const ReplayResult& replay,
                          const std::vector<ParamValue>& seed_params,
                          const SolverOptions& opts) {
  const obs::Span span(opts.obs, obs::span_name::kSolve);
  AdaptiveSeeds out;
  std::size_t flips_attempted = 0;
  const auto start = Clock::now();
  const double hard_ms = opts.effective_hard_timeout_ms();

  QueryDigest digest;                   // rolling prefix digest (cache keys)
  std::vector<const z3::expr*> prefix;  // holds walked so far

  const auto push_hold = [&](const PathStep& step) {
    if (step.hold) {
      prefix.push_back(&*step.hold);
      if (opts.cache != nullptr) opts.cache->extend(digest, *step.hold);
    }
  };
  const auto statically_pruned = [&](const PathStep& step) {
    return opts.prune_flip_sites != nullptr &&
           step.site < opts.prune_flip_sites->size() &&
           (*opts.prune_flip_sites)[step.site] != 0;
  };

  for (std::size_t k = 0; k < replay.path.size(); ++k) {
    const PathStep& step = replay.path[k];
    if (step.can_flip && step.flip) {
      if (flips_attempted >= opts.max_flips) break;

      // The per-query "timeout" parameter is only a soft limit; these
      // wall-clock gates are what actually bound one solve_flips call.
      if (opts.cancel != nullptr && opts.cancel->expired()) {
        out.aborted = true;
        break;
      }
      if (opts.wall_budget_ms != 0 && ms_since(start) >= opts.wall_budget_ms) {
        out.aborted = true;
        break;
      }
      // The static pre-analysis proved this condition cannot depend on
      // action input: no model could change the seed, so skip the query.
      // The flip slot is still consumed (unless the opt-in prioritization
      // knob frees it), keeping the schedule under max_flips identical
      // with and without the gate.
      if (statically_pruned(step)) {
        if (!opts.pruned_flips_free_budget) ++flips_attempted;
        ++out.pruned;
        push_hold(step);
        continue;
      }
      ++flips_attempted;

      QueryKey key;
      const CacheEntry* hit = nullptr;
      if (opts.cache != nullptr) {
        key = opts.cache->flip_key(digest, *step.flip);
        hit = opts.cache->lookup(key);
      }
      if (hit != nullptr) {
        ++out.cache_hits;
        if (hit->verdict == CachedVerdict::Sat) {
          ++out.sat;
          out.seeds.push_back(
              seed_from_model_values(seed_params, replay.bindings,
                                     hit->model));
        } else {
          ++out.unsat;
        }
      } else {
        if (opts.cache != nullptr) ++out.cache_misses;
        ++out.queries;

        const auto query_begin = Clock::now();
        SmtQueryResult result = solve_in_context(
            env.ctx(), prefix, *step.flip, opts.timeout_ms, hard_ms);
        if (opts.obs != nullptr) {
          opts.obs->latency_us("solver.query_us",
                               ms_since(query_begin) * 1000.0);
        }
        if (result.overshoot) {
          // Z3 overshot its soft timeout badly enough that the result is no
          // longer worth the budget it consumed. The model (if any) is
          // discarded so the seed stream stays timing-independent, and the
          // outcome is never cached — see SolverOptions::hard_timeout_ms
          // for the sat_late/unknown split.
          if (result.verdict == SmtQueryResult::Verdict::Sat) {
            ++out.sat_late;
          } else {
            ++out.unknown;
          }
        } else if (result.verdict == SmtQueryResult::Verdict::Sat) {
          ++out.sat;
          out.seeds.push_back(seed_from_model_values(seed_params,
                                                     replay.bindings,
                                                     result.model));
          if (opts.cache != nullptr) {
            opts.cache->insert(key, CachedVerdict::Sat,
                               std::move(result.model));
          }
        } else if (result.verdict == SmtQueryResult::Verdict::Unsat) {
          ++out.unsat;
          if (opts.cache != nullptr) {
            opts.cache->insert(key, CachedVerdict::Unsat);
          }
        } else {
          ++out.unknown;
        }
      }
    }
    push_hold(step);
  }
  out.wall_ms = ms_since(start);
  count_solver_call(opts.obs, out, out.queries);
  return out;
}

}  // namespace wasai::symbolic
