// Cross-iteration flip-query dedup (the concolic loop's §3.4.4 hot path):
// every fuzz iteration replays a trace and flips each branch, and most of
// those (prefix, flip) pairs were already decided in an earlier iteration —
// the trace shapes recur as the seed pool converges. The cache keys each
// query by a digest of its constraints' Z3 AST ids and stores the verdict
// plus the satisfying model bindings, so a repeated flip costs a hash
// lookup instead of a Z3 call.
//
// Why AST ids: Z3 hash-conses terms per context, so within one Z3Env two
// constraints have the same id exactly when they are the same term —
// operators, numerals and variable names included. The id is therefore a
// free structural key; nothing is printed. Keys are only meaningful within
// the context that built the terms, which is why one cache must only ever
// see queries from one Z3Env.
//
// Determinism note: variable names are significant. The key is NOT an
// alpha-renamed normal form: Z3's model choice depends on symbol names, so
// two alpha-equivalent queries with different variable names can have
// different models, and sharing a cached model between them would make a
// cached run diverge from an uncached one. Hash-consing already keeps
// "p0 == 7" and "q0 == 7" apart. Replay variable names are deterministic
// per trace shape ("p0", "p1_amount", "mem_<addr>" — see inputs.cpp and
// memory_model.cpp), so recurring queries rebuild the very same terms and
// the id key dedups everything that is safe to dedup.
//
// Pinning: Z3 recycles the id of a freed AST. A key holding the id of a
// term that died could then match an unrelated later term and return the
// wrong verdict. The SolverCache therefore pins every term whose id enters
// a key it computes (SolverCache::extend/flip_key, the one key function of
// both the serial and the parallel walk) for the cache's whole lifetime.
// The cache must be destroyed before its Z3Env (engine::Fuzzer declares
// it after env_).
#pragma once

#include <z3++.h>

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/digest.hpp"

namespace wasai::symbolic {

/// Model bindings of a sat query: (variable name, value) in Z3 model
/// declaration order. Small enough that linear lookup beats a map.
using ModelValues = std::vector<std::pair<std::string, std::uint64_t>>;

/// 128-bit cache key: the primary FNV-1a digest plus a salted second
/// FNV-1a stream over the same AST ids (same non-cryptographic
/// hash family, different seed — the streams are correlated, not an
/// independent hash pair). The secondary digest is a best-effort guard
/// against a primary collision silently returning a wrong verdict — a
/// mismatch is treated as a miss.
struct QueryKey {
  std::uint64_t primary = 0;
  std::uint64_t secondary = 0;

  bool operator==(const QueryKey&) const = default;
};

/// Rolling digest over the AST ids of the path-prefix constraints. The
/// solver walk extends it once per hold, and flip_key() forks the prefix
/// state with the flip's id to produce the key of one (prefix, flip) query
/// in O(1). The flip is absorbed with a distinct tag, so a flip id can never
/// stand in for a hold id. The digest does not keep its terms alive: the
/// walks go through SolverCache::extend/flip_key, which pin them.
class QueryDigest {
 public:
  /// Absorb the next path-prefix constraint.
  void extend(const z3::expr& hold);

  /// Key of the query "prefix so far AND flip". Does not mutate the prefix.
  [[nodiscard]] QueryKey flip_key(const z3::expr& flip) const;

 private:
  enum class Tag : std::uint8_t { Hold, Flip };
  static void absorb(util::Digest& d, Tag tag, const z3::expr& e);

  util::Digest primary_;
  util::Digest secondary_{make_secondary()};

  static util::Digest make_secondary() {
    util::Digest d;
    d.u64(0x5eedcafef00dull);  // distinct stream salt
    return d;
  }
};

enum class CachedVerdict : std::uint8_t { Sat, Unsat };

struct CacheEntry {
  CachedVerdict verdict = CachedVerdict::Unsat;
  ModelValues model;  // empty unless verdict == Sat
};

struct SolverCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t insertions = 0;
  std::size_t entries = 0;
};

/// Bounded LRU map from query key to solved verdict + model. One instance
/// per Fuzzer (one Z3Env); NOT thread-safe — the parallel solver consults
/// it from the coordinating thread only (pre-pass / merge), never from
/// workers. Only Sat and Unsat verdicts are cached: unknown and overshoot
/// outcomes are timing artifacts that a later attempt may decide.
class SolverCache {
 public:
  explicit SolverCache(std::size_t capacity = 4096)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Returns the entry or nullptr, counting a hit or miss and refreshing
  /// the entry's LRU position.
  const CacheEntry* lookup(const QueryKey& key);

  /// Record a solved query, evicting the least-recently-used entry when at
  /// capacity. Re-inserting an existing key refreshes value and position.
  void insert(const QueryKey& key, CachedVerdict verdict,
              ModelValues model = {});

  /// The key function of the solver walks: QueryDigest::extend/flip_key
  /// plus pinning of the absorbed term (see "Pinning" in the header note).
  void extend(QueryDigest& digest, const z3::expr& hold);
  [[nodiscard]] QueryKey flip_key(const QueryDigest& digest,
                                  const z3::expr& flip);

  [[nodiscard]] const SolverCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    QueryKey key;
    CacheEntry entry;
    std::list<std::uint64_t>::iterator lru;  // position in lru_
  };

  std::size_t capacity_;
  std::unordered_map<std::uint64_t, Slot> map_;  // keyed by primary digest
  std::list<std::uint64_t> lru_;  // most-recent first, holds primary keys
  SolverCacheStats stats_;
  /// AST id -> the term, kept alive so the id is never recycled while a
  /// key may contain it. Not trimmed on eviction: the evicted key's terms
  /// may be shared with live keys. The pins die with the cache, i.e. with
  /// the analysis.
  std::unordered_map<unsigned, z3::expr> pins_;
};

}  // namespace wasai::symbolic
