// Symbolic values: Wasm stack slots represented as Z3 bitvectors. Floats
// are modelled as bit patterns; symbolic float arithmetic falls back to
// fresh variables (the corpus never branches on symbolic float math, and
// the fuzzer tolerates unconstrained seeds).
#pragma once

#include <z3++.h>

#include <array>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "eosvm/value.hpp"
#include "wasm/types.hpp"

namespace wasai::symbolic {

/// Z3 environment shared by one analysis (context + helper constructors).
/// Its numeral cache and simplify memo live as long as the context, so
/// their memory is bounded by what one analysis builds.
class Z3Env {
 public:
  z3::context& ctx() { return ctx_; }

  /// Bitvector constant of the given width. 8-, 32- and 64-bit numerals
  /// are cached; Z3 hash-conses numerals, so a hit is the same AST
  /// `bv_val` would build.
  z3::expr bv(std::uint64_t value, unsigned bits) {
    auto* cache = numeral_cache(bits);
    if (cache == nullptr) return ctx_.bv_val(value, bits);
    const auto it = cache->find(value);
    if (it != cache->end()) return it->second;
    return cache->emplace(value, ctx_.bv_val(value, bits)).first->second;
  }

  /// `e.simplify()`, memoized by AST id. Each entry pins its key: Z3 ids
  /// are unique only among live ASTs, so an unpinned key could be freed
  /// and its id handed to a different term.
  z3::expr simplify(const z3::expr& e) {
    const auto it = simplified_.find(e.id());
    if (it != simplified_.end()) {
      ++simplify_hits_;
      return it->second.second;
    }
    ++simplify_misses_;
    z3::expr result = e.simplify();
    simplified_.emplace(e.id(), std::make_pair(e, result));
    return result;
  }

  /// Memo outcomes of simplify() so far.
  [[nodiscard]] std::uint64_t simplify_hits() const { return simplify_hits_; }
  [[nodiscard]] std::uint64_t simplify_misses() const {
    return simplify_misses_;
  }

  /// Fresh named bitvector variable.
  z3::expr var(const std::string& name, unsigned bits) {
    return ctx_.bv_const(name.c_str(), bits);
  }

  /// bool -> i32-style 0/1 bitvector.
  z3::expr bool_to_bv32(const z3::expr& b) {
    return z3::ite(b, bv(1, 32), bv(0, 32));
  }

  /// i32-style truthiness: value != 0.
  z3::expr truthy(const z3::expr& e) {
    return e != bv(0, e.get_sort().bv_size());
  }

  /// Fresh variable with a unique generated name.
  z3::expr fresh(const std::string& prefix, unsigned bits) {
    return var(prefix + "_" + std::to_string(fresh_counter_++), bits);
  }

 private:
  std::unordered_map<std::uint64_t, z3::expr>* numeral_cache(unsigned bits) {
    switch (bits) {
      case 8:
        return &numerals_[0];
      case 32:
        return &numerals_[1];
      case 64:
        return &numerals_[2];
      default:
        return nullptr;
    }
  }

  z3::context ctx_;
  std::uint64_t fresh_counter_ = 0;
  std::uint64_t simplify_hits_ = 0;
  std::uint64_t simplify_misses_ = 0;
  // Both caches hold ASTs of ctx_, so they are declared after it and
  // destroyed before it.
  std::array<std::unordered_map<std::uint64_t, z3::expr>, 3> numerals_;
  std::unordered_map<unsigned, std::pair<z3::expr, z3::expr>> simplified_;
};

/// One Wasm stack slot under symbolic execution.
struct SymValue {
  wasm::ValType type;
  z3::expr e;

  [[nodiscard]] unsigned bits() const { return e.get_sort().bv_size(); }

  [[nodiscard]] bool is_concrete() const { return e.is_numeral(); }

  /// Numeric value when concrete.
  [[nodiscard]] std::optional<std::uint64_t> concrete() const {
    if (!e.is_numeral()) return std::nullopt;
    return e.get_numeral_uint64();
  }
};

/// Lift a concrete runtime value into a SymValue.
inline SymValue lift(Z3Env& env, const vm::Value& v) {
  const unsigned bits =
      (v.type == wasm::ValType::I32 || v.type == wasm::ValType::F32) ? 32
                                                                     : 64;
  return SymValue{v.type, env.bv(v.bits, bits)};
}

/// True when the expression mentions any uninterpreted constant (i.e. it
/// depends on symbolic input or unknown memory).
bool has_variables(const z3::expr& e);

}  // namespace wasai::symbolic
