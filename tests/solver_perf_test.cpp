// Engine-level parity for the solver performance layer: the cross-iteration
// query cache and the parallel worker pool are pure performance knobs, so a
// full fuzzing campaign must produce identical findings, coverage and
// adaptive-seed counts whichever way they are toggled.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/dataset.hpp"
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

}  // namespace
}  // namespace wasai
