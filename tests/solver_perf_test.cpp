// Engine-level parity for the solver performance layer: the cross-iteration
// query cache and the parallel worker pool are pure performance knobs, so a
// full fuzzing campaign must produce identical findings, coverage and
// adaptive-seed counts whichever way they are toggled. The traffic test
// checks that the flip solver's QF_BV-only pipeline is sound for the
// queries replay actually produces.
#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <string>
#include <vector>

#include "corpus/dataset.hpp"
#include "engine/harness.hpp"
#include "engine/mutator.hpp"
#include "symbolic/solver.hpp"
#include "testgen/generator.hpp"
#include "wasai/wasai.hpp"
#include "wasm/encoder.hpp"

namespace wasai {
namespace {

struct Outcome {
  std::size_t adaptive_seeds;
  std::size_t distinct_branches;
  std::size_t transactions;
  std::size_t solver_sat;
  std::size_t solver_unsat;
  std::string findings;

  bool operator==(const Outcome&) const = default;
};

Outcome run_once(const util::Bytes& wasm, const abi::Abi& abi, bool cache,
                 bool parallel, std::size_t cache_capacity = 4096) {
  AnalysisOptions options;
  options.fuzz.iterations = 12;
  options.fuzz.rng_seed = 1;
  options.fuzz.solver_cache = cache;
  options.fuzz.solver_cache_capacity = cache_capacity;
  options.fuzz.parallel_solving = parallel;
  const auto result = analyze(wasm, abi, options);
  Outcome out{result.details.adaptive_seeds,
              result.details.distinct_branches,
              result.details.transactions,
              result.details.solver_sat,
              result.details.solver_unsat,
              {}};
  for (const auto& finding : result.report.findings) {
    out.findings += scanner::to_string(finding.type);
    out.findings += ';';
  }
  // Counter invariants: every flip the cache answered or Z3 decided.
  if (cache) {
    EXPECT_EQ(result.details.solver_cache_misses,
              result.details.solver_queries);
  } else {
    EXPECT_EQ(result.details.solver_cache_hits, 0u);
    EXPECT_EQ(result.details.solver_cache_misses, 0u);
  }
  return out;
}

TEST(SolverPerfParity, ConfigsAgreeOnFixedSeedTestgenModules) {
  // Deterministic generator seeds; small modules, quick campaigns. The
  // serial uncached walk is the reference: the parallel workers decide
  // each flip from exported SMT-LIB2 in their own context, the serial walk
  // in the analysis's context, and both must emit the same seeds.
  for (const std::uint64_t seed : {7ull, 1234567ull}) {
    const auto gen = testgen::generate(seed);
    const auto wasm = wasm::encode(gen.module);

    const Outcome serial =
        run_once(wasm, gen.abi, /*cache=*/false, /*parallel=*/false);
    EXPECT_EQ(run_once(wasm, gen.abi, true, false), serial)
        << "cached, seed " << seed;
    EXPECT_EQ(run_once(wasm, gen.abi, false, true), serial)
        << "parallel, seed " << seed;
    EXPECT_EQ(run_once(wasm, gen.abi, true, true), serial)
        << "cached parallel, seed " << seed;
  }
}

TEST(SolverPerfParity, TinyCacheEvictionKeepsParity) {
  // Regression: a capacity below the flip count forces LRU eviction while
  // a single solve call is still merging its results, so cached entries
  // must be copied out of the cache, not referenced — a dangling entry
  // corrupts the seed stream. Parity against the uncached serial walk
  // must survive constant eviction pressure in both serial and parallel
  // modes.
  for (const std::uint64_t seed : {7ull, 1234567ull}) {
    const auto gen = testgen::generate(seed);
    const auto wasm = wasm::encode(gen.module);

    const Outcome serial =
        run_once(wasm, gen.abi, /*cache=*/false, /*parallel=*/false);
    EXPECT_EQ(run_once(wasm, gen.abi, true, false, /*cache_capacity=*/2),
              serial)
        << "tiny-cache serial, seed " << seed;
    EXPECT_EQ(run_once(wasm, gen.abi, true, true, /*cache_capacity=*/2),
              serial)
        << "tiny-cache parallel, seed " << seed;
  }
}

TEST(SolverPerfParity, CacheDedupsExactlyWhatThePrintedKeyDid) {
  // The cache keys queries by Z3 AST id. The expected counts below were
  // recorded with the earlier key, a digest of every constraint's printed
  // text, at the default 48 iterations: equal counts mean the id key
  // dedups exactly the queries the printed key did — no more (a key that
  // conflates distinct queries) and no less (one that splits equal ones).
  struct Case {
    std::string label;
    util::Bytes wasm;
    abi::Abi abi;
    std::size_t queries;
    std::size_t hits;
  };
  std::vector<Case> cases;
  const auto gen = testgen::generate(5);
  cases.push_back({"testgen 5", wasm::encode(gen.module), gen.abi, 10, 32});
  corpus::BenchmarkSpec spec;
  spec.seed = 1;
  spec.scale = 0.05;
  auto draw = corpus::make_benchmark(spec);
  ASSERT_GT(draw.size(), 35u);
  ASSERT_EQ(draw[35].tag, "fake-notif/patched");
  cases.push_back({"benchmark draw #35 " + draw[35].tag,
                   std::move(draw[35].wasm), std::move(draw[35].abi), 15,
                   282});

  for (const auto& c : cases) {
    for (const bool parallel : {false, true}) {
      AnalysisOptions options;
      options.fuzz.rng_seed = 1;
      options.fuzz.parallel_solving = parallel;
      options.fuzz.solver_threads = 2;
      const auto result = analyze(c.wasm, c.abi, options);
      EXPECT_EQ(result.details.solver_queries, c.queries)
          << c.label << (parallel ? " parallel" : " serial");
      EXPECT_EQ(result.details.solver_cache_hits, c.hits)
          << c.label << (parallel ? " parallel" : " serial");
      EXPECT_EQ(result.details.solver_unknown, 0u) << c.label;
    }
  }
}

/// One flip query as the solver walks pose it: the path-prefix holds
/// walked so far and the negated branch.
struct FlipQuery {
  std::vector<z3::expr> holds;
  z3::expr flip;
};

/// Every distinct flip query the symbolic feedback poses on one contract,
/// in `env`. Mirrors the engine's feedback step (locate the action call,
/// replay, walk the path up to max_flips flips, solve) over a seed loop of
/// `transactions` runs in which every solved seed runs next and every run
/// seed goes back mutated, so the queries are the kinds the fuzz loop
/// issues. Queries are deduplicated by the AST ids of their constraints.
std::vector<FlipQuery> collect_flip_queries(symbolic::Z3Env& env,
                                            const util::Bytes& wasm,
                                            const abi::Abi& abi_def,
                                            int transactions) {
  static const abi::ActionDef kTransferDef = abi::transfer_action_def();
  engine::ChainHarness h(wasm, abi_def);
  engine::Mutator mutator(util::Rng(1),
                          {h.names().attacker, h.names().victim});
  const auto def_of = [&](abi::Name action) -> const abi::ActionDef* {
    const abi::ActionDef* def = h.contract_abi().find(action);
    return def == nullptr && action == kTransferDef.name ? &kTransferDef
                                                         : def;
  };
  std::deque<engine::Seed> pool;
  for (const auto& def : h.contract_abi().actions) {
    pool.push_back(mutator.random_seed(def));
  }
  if (h.contract_abi().find(kTransferDef.name) == nullptr) {
    pool.push_back(mutator.random_seed(kTransferDef));
  }

  symbolic::SolverCache cache;
  symbolic::SolverOptions opts;
  opts.cache = &cache;
  std::vector<FlipQuery> queries;
  std::set<std::vector<unsigned>> seen;
  for (int tx = 0; tx < transactions; ++tx) {
    engine::Seed seed = pool.front();
    pool.pop_front();
    if (seed.action == kTransferDef.name) {
      h.run_valid_transfer(seed);
    } else {
      h.run_normal(seed);
    }
    for (const auto* trace : h.victim_traces()) {
      const abi::ActionDef* def = def_of(trace->action);
      if (def == nullptr) continue;
      const auto site = symbolic::locate_action_call(
          *trace, h.sites(), h.original(), def->params.size() + 1);
      if (!site || site->concrete_args.size() != def->params.size() + 1 ||
          h.last_params().size() != def->params.size()) {
        continue;
      }
      symbolic::ReplayResult replayed;
      try {
        replayed = symbolic::replay(env, h.original(), h.sites(), *trace,
                                    *site, *def, h.last_params());
      } catch (const util::Error&) {
        continue;
      }
      std::vector<z3::expr> holds;
      std::size_t flips = 0;
      for (const auto& step : replayed.path) {
        if (step.can_flip && step.flip) {
          if (flips++ == opts.max_flips) break;
          std::vector<unsigned> key;
          for (const auto& hold : holds) key.push_back(hold.id());
          key.push_back(step.flip->id());
          if (seen.insert(std::move(key)).second) {
            queries.push_back({holds, *step.flip});
          }
        }
        if (step.hold) holds.push_back(*step.hold);
      }
      auto adaptive =
          symbolic::solve_flips(env, replayed, h.last_params(), opts);
      for (auto& params : adaptive.seeds) {
        pool.push_front(engine::Seed{trace->action, std::move(params)});
      }
    }
    mutator.mutate(seed, *def_of(seed.action));
    pool.push_back(std::move(seed));
  }
  return queries;
}

TEST(SolverTraffic, FlipQueriesAreQfbvAndTheFlipSolverDecidesThemSoundly) {
  // The flip solver is Z3's QF_BV tactic pipeline with no fallback for
  // other logics. That is only sound if every query the replay produces is
  // QF_BV, so this test checks it over real traffic: the tier-1 testgen
  // seeds and the RQ2 benchmark draw. For every flip query: Z3's is-qfbv
  // probe accepts it, the flip solver's verdict equals that of Z3's
  // default solver, and every sat model satisfies every assertion.
  struct Contract {
    std::string label;
    util::Bytes wasm;
    abi::Abi abi;
  };
  std::vector<Contract> contracts;
  for (const std::uint64_t seed : {5ull, 7ull, 1234567ull}) {
    const auto gen = testgen::generate(seed);
    contracts.push_back({"testgen " + std::to_string(seed),
                         wasm::encode(gen.module), gen.abi});
  }
  corpus::BenchmarkSpec spec;
  spec.seed = 1;
  spec.scale = 0.05;
  for (auto& sample : corpus::make_benchmark(spec)) {
    contracts.push_back({"benchmark " + sample.tag, std::move(sample.wasm),
                         std::move(sample.abi)});
  }

  constexpr unsigned kTimeoutMs = 10000;  // no verdict may be unknown
  std::size_t total = 0;
  std::size_t sat = 0;
  for (const auto& c : contracts) {
    symbolic::Z3Env env;
    z3::context& ctx = env.ctx();
    const auto queries = collect_flip_queries(env, c.wasm, c.abi, 16);
    z3::probe is_qfbv(ctx, "is-qfbv");
    z3::params reference_params(ctx);
    reference_params.set("timeout", kTimeoutMs);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const FlipQuery& q = queries[i];
      const std::string where = c.label + " query " + std::to_string(i);
      z3::goal goal(ctx);
      z3::solver flip_solver = symbolic::make_flip_solver(ctx, kTimeoutMs);
      z3::solver reference(ctx);
      reference.set(reference_params);
      z3::expr_vector asserted(ctx);
      for (const auto& hold : q.holds) asserted.push_back(hold);
      asserted.push_back(q.flip);
      for (const auto& a : asserted) {
        goal.add(a);
        flip_solver.add(a);
        reference.add(a);
      }
      ASSERT_EQ(is_qfbv(goal), 1.0) << where << ":\n" << goal;
      const z3::check_result verdict = flip_solver.check();
      ASSERT_NE(verdict, z3::unknown) << where;
      ASSERT_EQ(verdict, reference.check()) << where;
      if (verdict != z3::sat) continue;
      ++sat;
      const z3::model model = flip_solver.get_model();
      for (const auto& a : asserted) {
        ASSERT_TRUE(model.eval(a, true).is_true())
            << where << ": model violates " << a;
      }
    }
    total += queries.size();
  }
  // The draw exercises real traffic: hundreds of queries, mostly sat.
  EXPECT_GT(total, 300u);
  EXPECT_GT(sat, total / 2);
}

}  // namespace
}  // namespace wasai
