#include "symbolic/solver_cache.hpp"

namespace wasai::symbolic {

void QueryDigest::absorb(util::Digest& d, Tag tag, const z3::expr& e) {
  // Fixed-width words keep constraint boundaries unambiguous; the tag sits
  // above the 32-bit id.
  d.u64(static_cast<std::uint64_t>(tag) << 32 | e.id());
}

void QueryDigest::extend(const z3::expr& hold) {
  absorb(primary_, Tag::Hold, hold);
  absorb(secondary_, Tag::Hold, hold);
}

QueryKey QueryDigest::flip_key(const z3::expr& flip) const {
  util::Digest p = primary_;
  util::Digest s = secondary_;
  absorb(p, Tag::Flip, flip);
  absorb(s, Tag::Flip, flip);
  return QueryKey{p.value(), s.value()};
}

void SolverCache::extend(QueryDigest& digest, const z3::expr& hold) {
  pins_.try_emplace(hold.id(), hold);
  digest.extend(hold);
}

QueryKey SolverCache::flip_key(const QueryDigest& digest,
                               const z3::expr& flip) {
  pins_.try_emplace(flip.id(), flip);
  return digest.flip_key(flip);
}

const CacheEntry* SolverCache::lookup(const QueryKey& key) {
  const auto it = map_.find(key.primary);
  if (it == map_.end() || it->second.key != key) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return &it->second.entry;
}

void SolverCache::insert(const QueryKey& key, CachedVerdict verdict,
                         ModelValues model) {
  const auto it = map_.find(key.primary);
  if (it != map_.end()) {
    it->second.key = key;
    it->second.entry = CacheEntry{verdict, std::move(model)};
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  if (map_.size() >= capacity_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(key.primary);
  map_.emplace(key.primary,
               Slot{key, CacheEntry{verdict, std::move(model)}, lru_.begin()});
  ++stats_.insertions;
  stats_.entries = map_.size();
}

}  // namespace wasai::symbolic
