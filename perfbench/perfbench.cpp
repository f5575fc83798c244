// WASAI benchmark harness. Runs the default analysis pipeline (default
// FuzzOptions: solver cache, static pass and VM fast path on) over one
// seeded workload for a fixed time and prints the result as one JSON line:
// end-to-end metrics with --trace 0, per-layer metrics from an obs-traced
// run with --trace 1. Outputs are checked, not just timed: verdicts are
// scored against the corpus ground truth, and a per-contract fingerprint
// (findings, adaptive seeds, coverage, transactions, solver verdict counts,
// final-trace digest) must reproduce exactly within the run and across runs
// that share a fingerprint store. See perfbench/README.md for the workloads
// and the metric definitions.
//
// Usage: wasai_perfbench --workload templates|obfuscated
//          --seed N --seconds S --trace 0|1 [--store DIR]
// Exit status: 0 = ran and every output check passed, 1 = an output check
// failed (the JSON line still reports the measurements), 2 = usage.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "corpus/dataset.hpp"
#include "instrument/trace_io.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"
#include "util/json.hpp"
#include "wasai/wasai.hpp"

namespace {

using namespace wasai;
using Clock = std::chrono::steady_clock;

/// RQ2 benchmark fraction per draw: 164 contracts (82 vulnerable/safe pairs
/// over the five families), large enough for a p90 with 16 contracts above
/// it and small enough for one serial pass in ~15 s.
constexpr double kTemplateScale = 0.05;
/// The prefix of the draw a run measures: the whole draw, except for
/// `obfuscated`, whose contracts cost ~0.6 s each — there the prefix is cut
/// so a run still analyzes each contract about twice, in different phases
/// of machine load. Untraced runs always analyze all of it, so every metric
/// is over a fixed set of contracts.
std::size_t scored_contracts(const std::string& workload, std::size_t n) {
  return workload == "obfuscated" ? std::min<std::size_t>(n, 24) : n;
}
/// Set-up sampling: builds of the draw at start, then one more build every
/// kSetupEvery analyses.
constexpr int kSetupAtStart = 5;
constexpr std::size_t kSetupEvery = 4;
/// Contracts of the scored prefix re-analyzed through engine::Fuzzer after
/// the timed window to digest their final traces (wasai::analyze does not
/// expose the harness).
constexpr std::size_t kTraceChecks = 6;
/// Verdict-accuracy floor, far below the paper's ~99%: a broken oracle or
/// feedback loop misjudges about half of a draw and fails the run outright.
/// Today's misses are at most 4 of 164 `templates` and 3 of 24 scored
/// `obfuscated` contracts, depending on the seed. Smaller regressions show
/// in the verdict_accuracy metric and, per contract, as fingerprint drift.
constexpr double kMaxVerdictErrorFrac = 0.15;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string store;  // fingerprint store directory; empty = in-run only
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "wasai_perfbench: %s\nusage: wasai_perfbench --workload "
               "templates|obfuscated --seed N --seconds S "
               "--trace 0|1 [--store DIR]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-') {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      const auto t = parse_uint(flag, value);
      if (t > 1) usage("--trace expects 0 or 1");
      args.trace = t == 1;
      have_trace = true;
    } else if (flag == "--store") {
      args.store = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload != "templates" && args.workload != "obfuscated") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!have_seed || !have_trace || args.seconds <= 0) {
    usage("--seed, --trace and a positive --seconds are required");
  }
  return args;
}

// --------------------------------------------------------------- the draw

struct Item {
  std::string id;
  util::Bytes wasm;
  abi::Abi abi;
  /// Ground truth. RQ2 samples are labeled per family: the verdict is
  /// right when `category` is reported iff the sample is vulnerable.
  scanner::VulnType category{};
  bool vulnerable = false;

  [[nodiscard]] bool verdict_ok(const std::set<scanner::VulnType>& found)
      const {
    return found.contains(category) == vulnerable;
  }
};

/// make_benchmark emits the draw grouped by family. Reorder it so every
/// prefix keeps the family mix: each sample is keyed by its relative
/// position inside its family and the draw is stably sorted by that key.
std::vector<corpus::Sample> interleave(std::vector<corpus::Sample> samples) {
  std::map<scanner::VulnType, std::size_t> family_size;
  for (const auto& s : samples) ++family_size[s.category];
  std::map<scanner::VulnType, std::size_t> seen;
  std::vector<std::pair<double, std::size_t>> keys;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto family = samples[i].category;
    const double pos = static_cast<double>(seen[family]++) + 0.5;
    keys.emplace_back(pos / static_cast<double>(family_size[family]), i);
  }
  std::stable_sort(keys.begin(), keys.end(), [](const auto& a,
                                                const auto& b) {
    return a.first < b.first;
  });
  std::vector<corpus::Sample> out;
  out.reserve(samples.size());
  for (const auto& [key, i] : keys) out.push_back(std::move(samples[i]));
  return out;
}

std::vector<Item> make_draw(const Args& args) {
  std::vector<Item> items;
  corpus::BenchmarkSpec spec;
  spec.seed = args.seed;
  spec.scale = kTemplateScale;
  spec.obfuscated = args.workload == "obfuscated";
  auto samples = interleave(corpus::make_benchmark(spec));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    auto& s = samples[i];
    Item item;
    item.id = std::to_string(i) + "-" + s.tag;
    item.wasm = std::move(s.wasm);
    item.abi = std::move(s.abi);
    item.category = s.category;
    item.vulnerable = s.vulnerable;
    items.push_back(std::move(item));
  }
  return items;
}

/// Times builds of the draw. Machine load comes in phases longer than a
/// build, so builds are repeated through the run, between analyses, and
/// setup_s is the median over all of them.
class SetupClock {
 public:
  explicit SetupClock(Args args) : args_(std::move(args)) {}

  std::vector<Item> build() {
    const auto t0 = Clock::now();
    auto items = make_draw(args_);
    ms_.push_back(ms_since(t0));
    return items;
  }

  /// One more timed build, discarded.
  void sample() { build(); }

  [[nodiscard]] double median_s() const { return quantile(ms_, 0.5) / 1000.0; }

 private:
  Args args_;
  std::vector<double> ms_;
};

// --------------------------------------------------------- output checks

/// What one analysis of one contract produced, reduced to what the checks
/// and the metrics need.
struct Outcome {
  std::string fingerprint;
  std::set<scanner::VulnType> found;
  std::size_t transactions = 0;
  std::size_t distinct_branches = 0;
  std::size_t adaptive_seeds = 0;
  std::size_t unknown = 0;  // solver unknown + sat past the hard cap
  double ms = 0;            // per-contract time to verdict
};

/// The fingerprint holds program outputs only, never counts of work done
/// (iterations, replays, Z3 queries, cache hits), so a change that saves
/// work keeps it. Cache hits count as sat or unsat like the query they
/// stand for, and a statically pruned flip counts as unsat: the static pass
/// prunes only flips it proves infeasible.
Outcome outcome_of(const engine::FuzzReport& r, double ms) {
  util::Digest findings;
  for (const auto& f : r.scan.findings) {
    findings.u8(static_cast<std::uint8_t>(f.type));
    findings.bytes({reinterpret_cast<const std::uint8_t*>(f.detail.data()),
                    f.detail.size()});
    findings.u8(0);
  }
  for (const auto& f : r.custom) {
    for (const std::string* s : {&f.id, &f.detail}) {
      findings.bytes(
          {reinterpret_cast<const std::uint8_t*>(s->data()), s->size()});
      findings.u8(0);
    }
  }
  std::string types;
  for (const auto t : r.scan.found) {
    types += scanner::to_string(t);
    types += ',';
  }
  Outcome o;
  o.fingerprint =
      "found=" + types + " findings=" + findings.hex() +
      " seeds=" + std::to_string(r.adaptive_seeds) +
      " branches=" + std::to_string(r.distinct_branches) +
      " tx=" + std::to_string(r.transactions) +
      " sat=" + std::to_string(r.solver_sat) + "/" +
      std::to_string(r.solver_sat_late) +
      " unsat=" + std::to_string(r.solver_unsat + r.flips_pruned) +
      " unknown=" + std::to_string(r.solver_unknown);
  o.found = r.scan.found;
  o.transactions = r.transactions;
  o.distinct_branches = r.distinct_branches;
  o.adaptive_seeds = r.adaptive_seeds;
  o.unknown = r.solver_unknown + r.solver_sat_late;
  o.ms = ms;
  return o;
}

/// Per-contract fingerprints of one (workload, seed). Every value recorded
/// under a key must equal the first one seen for it — in this run or, with
/// a store file, in any earlier run on the same checkout. A change meant to
/// alter outputs must delete the store (see perfbench/README.md).
class FingerprintBook {
 public:
  explicit FingerprintBook(std::string path) : path_(std::move(path)) {
    if (path_.empty()) return;
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      const auto tab = line.find('\t');
      if (tab != std::string::npos) {
        known_.emplace(line.substr(0, tab), line.substr(tab + 1));
      }
    }
  }

  void check(const std::string& key, const std::string& value) {
    const auto [it, fresh] = known_.emplace(key, value);
    if (!fresh && it->second != value) {
      ++drifts_;
      std::fprintf(stderr,
                   "fingerprint drift on %s\n  expected: %s\n  got:      %s\n",
                   key.c_str(), it->second.c_str(), value.c_str());
    }
  }

  [[nodiscard]] std::size_t drifts() const { return drifts_; }

  /// Persist every fingerprint (stored and new); false on I/O failure.
  [[nodiscard]] bool save() const {
    if (path_.empty()) return true;
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path_).parent_path(), ec);
    const std::string tmp = path_ + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      for (const auto& [key, value] : known_) {
        out << key << '\t' << value << '\n';
      }
      if (!out) return false;
    }
    std::filesystem::rename(tmp, path_, ec);
    return !ec;
  }

 private:
  std::string path_;
  std::map<std::string, std::string> known_;
  std::size_t drifts_ = 0;
};

// ------------------------------------------------------------ measurement

/// Everything a run measured, folded as analyses complete. Times are kept
/// per draw item: timing metrics average each contract's samples first and
/// then aggregate over the scored prefix, so how far a run got through the
/// draw (which depends on machine load) does not change the contract mix.
struct Tally {
  explicit Tally(std::size_t n)
      : first(n), plain_ms(n), traced_ms(n), call_ms(n) {}

  std::vector<std::optional<Outcome>> first;  // first outcome per item
  /// Time to verdict. `plain_ms` holds untraced runs and the obs-off half
  /// of traced runs; `traced_ms` holds the obs-on half of traced runs.
  std::vector<std::vector<double>> plain_ms;
  std::vector<std::vector<double>> traced_ms;
  /// The whole untraced analyze() call, analyzer teardown included — what
  /// a caller waits for between two contracts.
  std::vector<std::vector<double>> call_ms;
  std::size_t analyses = 0;
  std::size_t failed = 0;
  std::size_t unknown = 0;
  double wall_ms = 0;  // measured window, obs off and on
  double busy_ms = 0;  // summed time to verdict inside wall_ms

  // Traced analyses only (the per-layer denominators).
  std::size_t traced_analyses = 0;
  std::size_t traced_seeds = 0;
  std::size_t traced_unknown = 0;
  obs::PhaseTotals phases;
  std::map<std::string, double> counters;
  double query_us = 0;  // solver.query_us histogram total

  void record(std::size_t index, const Outcome& o, bool traced,
              FingerprintBook& book, const std::string& id) {
    ++analyses;
    unknown += o.unknown;
    busy_ms += o.ms;
    (traced ? traced_ms : plain_ms)[index].push_back(o.ms);
    if (traced) {
      ++traced_analyses;
      traced_seeds += o.adaptive_seeds;
      traced_unknown += o.unknown;
    }
    book.check(id, o.fingerprint);
    if (!first[index]) first[index] = o;
  }

  void absorb(const obs::Registry& registry) {
    obs::merge_totals(phases, registry.aggregate_all());
    for (const auto& [name, counter] : registry.counters()) {
      counters[name] += static_cast<double>(counter->value());
    }
    for (const auto& [name, histogram] : registry.histograms()) {
      if (name == "solver.query_us") query_us += histogram->total_us();
    }
  }
};

/// wasai::analyze over the scored prefix in order, serially, cycling until
/// the time is up. Untraced runs always finish one pass.
/// Traced runs pair every contract's untraced analysis with a traced one,
/// alternating which goes first.
void run_serial(const Args& args, const std::vector<Item>& items,
                std::size_t scored, SetupClock& setup, FingerprintBook& book,
                Tally& tally) {
  obs::Registry registry;
  obs::Obs& track = registry.track("bench");
  const auto start = Clock::now();
  for (std::size_t n = 0; n == 0 || (!args.trace && n < scored) ||
                          ms_since(start) < args.seconds * 1000;
       ++n) {
    const std::size_t index = n % scored;
    const Item& item = items[index];
    if (n % kSetupEvery == 0) setup.sample();
    std::vector<bool> passes = {false};
    if (args.trace) {
      passes = n % 2 == 0 ? std::vector<bool>{false, true}
                          : std::vector<bool>{true, false};
    }
    for (const bool traced : passes) {
      AnalysisOptions options;
      options.fuzz.obs = traced ? &track : nullptr;
      try {
        const auto t0 = Clock::now();
        const auto result = analyze(item.wasm, item.abi, options);
        if (!traced) tally.call_ms[index].push_back(ms_since(t0));
        tally.record(index, outcome_of(result.details, result.total_ms),
                     traced, book, item.id);
      } catch (const std::exception& e) {
        ++tally.analyses;
        ++tally.failed;
        std::fprintf(stderr, "%s: %s\n", item.id.c_str(), e.what());
      }
    }
  }
  tally.wall_ms = ms_since(start);
  if (args.trace) tally.absorb(registry);
}

/// Re-analyze a spread of the scored prefix through engine::Fuzzer (what
/// wasai::analyze wraps) to digest each contract's final-iteration traces;
/// the re-analysis must also reproduce the timed run's fingerprint.
void check_traces(const std::vector<Item>& items, std::size_t scored,
                  FingerprintBook& book, std::size_t& failed) {
  const std::size_t stride = std::max<std::size_t>(1, scored / kTraceChecks);
  for (std::size_t i = 0; i < scored; i += stride) {
    const Item& item = items[i];
    try {
      engine::Fuzzer fuzzer(item.wasm, item.abi, engine::FuzzOptions{});
      const auto report = fuzzer.run();
      book.check(item.id, outcome_of(report, 0).fingerprint);
      util::Digest digest;
      digest.bytes(
          instrument::serialize_traces(fuzzer.harness().sink().actions()));
      book.check(item.id + "#trace", digest.hex());
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "%s (trace check): %s\n", item.id.c_str(),
                   e.what());
    }
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Layer name → obs span whose self time it owns.
const std::vector<std::pair<std::string, std::string>>& layers() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"wasm.decode", obs::span_name::kDecode},
      {"instrument", obs::span_name::kInstrument},
      {"chain.deploy", obs::span_name::kDeploy},
      {"engine.init", obs::span_name::kInit},
      {"analysis.static", obs::span_name::kStaticAnalyze},
      {"eosvm.execute", obs::span_name::kExecute},
      {"scanner.oracle_scan", obs::span_name::kOracleScan},
      {"symbolic.replay", obs::span_name::kReplay},
      {"symbolic.solve", obs::span_name::kSolve},
      {"engine.fuzz", obs::span_name::kFuzz},
  };
  return kLayers;
}

/// Each contract's mean over its samples, for the contracts that have any.
std::vector<double> contract_means(
    const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  for (const auto& v : samples) {
    if (!v.empty()) out.push_back(mean(v));
  }
  return out;
}

std::vector<Metric> end_to_end(const Tally& t, std::size_t scored,
                               double setup_s, std::size_t verdict_errors,
                               std::size_t branches) {
  // Seconds to get through the scored prefix once: the sum of each
  // contract's mean analyze() call.
  double pass_s = 0;
  double pass_tx = 0;
  for (std::size_t i = 0; i < scored; ++i) {
    pass_s += mean(t.call_ms[i]) / 1000.0;
    if (t.first[i]) pass_tx += static_cast<double>(t.first[i]->transactions);
  }
  const auto per_contract = contract_means(t.plain_ms);
  const double n = static_cast<double>(scored);
  return {
      {"contracts_per_s", ratio(n, pass_s), "1/s"},
      {"tx_per_s", ratio(pass_tx, pass_s), "1/s"},
      {"contract_ms_p50", quantile(per_contract, 0.5), "ms"},
      {"contract_ms_p90", quantile(per_contract, 0.9), "ms"},
      {"verdict_accuracy", 1.0 - static_cast<double>(verdict_errors) / n,
       "fraction"},
      {"distinct_branches", static_cast<double>(branches), "count"},
      {"ok_frac",
       1.0 - ratio(static_cast<double>(t.failed),
                   static_cast<double>(t.analyses)),
       "fraction"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", setup_s, "s"},
  };
}

std::vector<Metric> per_layer(const Tally& t) {
  std::vector<Metric> out;
  const double per = static_cast<double>(t.traced_analyses);
  const auto phase = [&t](const std::string& span) {
    const auto it = t.phases.find(span);
    return it == t.phases.end() ? obs::PhaseStat{} : it->second;
  };
  const auto self_us = [&phase](const std::string& span) {
    return phase(span).self_us;
  };
  // Traced wall: the analyze() window, which the `init` and `fuzz` spans
  // tile. It leaves out what wraps the window (analyzer teardown), so the
  // layer shares sum to ~1.
  const double span_us = phase(obs::span_name::kInit).total_us +
                         phase(obs::span_name::kFuzz).total_us;
  const auto counter = [&t](const std::string& name) {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : it->second;
  };
  for (const auto& [layer, span] : layers()) {
    out.push_back({layer + ".self_ms", ratio(self_us(span) / 1000.0, per),
                   "ms"});
    out.push_back({layer + ".share", ratio(self_us(span), span_us),
                   "fraction"});
  }
  const double steps = counter("execute.steps");
  const double events = counter("replay.events");
  const double queries = counter("solver.queries");
  const double hits = counter("solver.cache_hits");
  const double solve_us = self_us(obs::span_name::kSolve);
  out.push_back({"eosvm.steps", ratio(steps, per), "count"});
  out.push_back({"eosvm.ns_per_step",
                 ratio(self_us(obs::span_name::kExecute) * 1000.0, steps),
                 "ns"});
  out.push_back({"symbolic.replay.events", ratio(events, per), "count"});
  out.push_back({"symbolic.replay.ns_per_event",
                 ratio(self_us(obs::span_name::kReplay) * 1000.0, events),
                 "ns"});
  out.push_back({"symbolic.solve.queries", ratio(queries, per), "count"});
  out.push_back(
      {"symbolic.solve.query_ms", ratio(t.query_us / 1000.0, per), "ms"});
  out.push_back({"symbolic.solve.other_ms",
                 ratio((solve_us - t.query_us) / 1000.0, per), "ms"});
  out.push_back({"symbolic.solve.ms_per_query",
                 ratio(t.query_us / 1000.0, queries), "ms"});
  out.push_back(
      {"symbolic.solve.cache_hit_rate", ratio(hits, hits + queries),
       "fraction"});
  out.push_back({"symbolic.solve.seeds_per_query",
                 ratio(static_cast<double>(t.traced_seeds), hits + queries),
                 "ratio"});
  out.push_back({"symbolic.solve.unknown",
                 static_cast<double>(t.traced_unknown), "count"});
  out.push_back({"instrument.sites",
                 ratio(counter("instrument.sites"),
                       counter("instrument.modules")),
                 "count"});
  out.push_back({"analyze.busy_frac", ratio(t.busy_ms, t.wall_ms),
                 "fraction"});
  out.push_back({"obs.overhead_frac",
                 ratio(quantile(contract_means(t.traced_ms), 0.5),
                       quantile(contract_means(t.plain_ms), 0.5)) -
                     1.0,
                 "fraction"});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  // Set-up: build the draw.
  SetupClock setup(args);
  const std::vector<Item> items = setup.build();
  for (int r = 1; r < kSetupAtStart; ++r) setup.sample();

  FingerprintBook book(
      args.store.empty()
          ? std::string()
          : args.store + "/" + args.workload + "-" +
                std::to_string(args.seed) + ".fp");
  const std::size_t scored = scored_contracts(args.workload, items.size());

  Tally tally(items.size());

  // Warm-up: one untimed analysis lets lazy library set-up (the first Z3
  // context, allocator growth) finish before the clock starts.
  try {
    const auto warm = analyze(items[0].wasm, items[0].abi);
    book.check(items[0].id, outcome_of(warm.details, 0).fingerprint);
  } catch (const std::exception& e) {
    ++tally.failed;
    std::fprintf(stderr, "%s (warm-up): %s\n", items[0].id.c_str(), e.what());
  }
  run_serial(args, items, scored, setup, book, tally);
  check_traces(items, scored, book, tally.failed);

  // Verdicts and coverage over the scored prefix.
  std::size_t verdict_errors = 0;
  std::size_t branches = 0;
  std::size_t missing = 0;
  for (std::size_t i = 0; i < scored; ++i) {
    if (!tally.first[i]) {
      ++missing;
      continue;
    }
    if (!items[i].verdict_ok(tally.first[i]->found)) {
      ++verdict_errors;
      std::fprintf(stderr, "verdict error on %s\n", items[i].id.c_str());
    }
    branches += tally.first[i]->distinct_branches;
  }

  std::vector<std::string> problems;
  if (book.drifts() != 0) {
    problems.push_back(std::to_string(book.drifts()) + " fingerprint drifts");
  }
  if (tally.failed != 0) {
    problems.push_back(std::to_string(tally.failed) + " failed analyses");
  }
  if (!args.trace && missing != 0) {
    problems.push_back(std::to_string(missing) + " contracts never analyzed");
  }
  if (tally.unknown != 0) {
    problems.push_back(std::to_string(tally.unknown) +
                       " solver queries past the timeout");
  }
  if (static_cast<double>(verdict_errors) >
      kMaxVerdictErrorFrac * static_cast<double>(scored)) {
    problems.push_back(std::to_string(verdict_errors) + " verdict errors");
  }
  if (!book.save()) problems.push_back("cannot write fingerprint store");

  const auto metrics = args.trace
                           ? per_layer(tally)
                           : end_to_end(tally, scored, setup.median_s(),
                                        verdict_errors, branches);

  std::printf("workload %s seed %llu trace %d: %zu of %zu contracts scored, "
              "%zu analyses in %.1f s; percentiles over %zu "
              "per-contract means\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, scored, items.size(), tally.analyses,
              tally.wall_ms / 1000.0, contract_means(tally.plain_ms).size());
  std::printf("  %-40s %14zu %s\n", "verdict_errors", verdict_errors, "count");
  std::printf("  %-40s %14.6g %s\n", "failed_frac",
              ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.analyses)),
              "fraction");
  util::JsonObject values;
  for (const auto& m : metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    util::JsonObject entry;
    entry.emplace("value", util::Json(m.value));
    entry.emplace("unit", util::Json(m.unit));
    values.emplace(m.name, util::Json(std::move(entry)));
  }
  for (const auto& p : problems) std::printf("  CHECK FAILED: %s\n", p.c_str());

  util::JsonObject result;
  result.emplace("correct", util::Json(problems.empty()));
  result.emplace("attempted", util::Json(static_cast<double>(tally.analyses)));
  result.emplace("failed", util::Json(static_cast<double>(tally.failed)));
  result.emplace("metrics", util::Json(std::move(values)));
  std::printf("%s\n", util::dump_json(util::Json(std::move(result))).c_str());
  return problems.empty() ? 0 : 1;
}
