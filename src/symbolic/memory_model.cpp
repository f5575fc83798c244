#include "symbolic/memory_model.hpp"

namespace wasai::symbolic {

void MemoryModel::store(std::uint64_t addr, const SymValue& value,
                        unsigned size_bytes) {
  // Fast path: concrete values split into byte constants directly (the
  // common case when replaying deserialized data).
  if (const auto concrete = value.concrete()) {
    for (unsigned i = 0; i < size_bytes; ++i) {
      bytes_.insert_or_assign(addr + i,
                              env_->bv((*concrete >> (i * 8)) & 0xff, 8));
    }
    return;
  }
  // Widen the expression so byte extraction is uniform.
  z3::expr e = value.e;
  if (e.get_sort().bv_size() < size_bytes * 8) {
    e = z3::zext(e, size_bytes * 8 - e.get_sort().bv_size());
  }
  for (unsigned i = 0; i < size_bytes; ++i) {
    const z3::expr byte = e.extract(i * 8 + 7, i * 8);
    bytes_.insert_or_assign(addr + i, env_->simplify(byte));
  }
}

void MemoryModel::bind(std::uint64_t addr, const z3::expr& value,
                       unsigned size_bytes) {
  for (unsigned i = 0; i < size_bytes; ++i) {
    bytes_.insert_or_assign(addr + i, value.extract(i * 8 + 7, i * 8));
  }
}

z3::expr MemoryModel::byte_at(std::uint64_t addr) {
  const auto it = bytes_.find(addr);
  if (it != bytes_.end()) return it->second;
  // Symbolic load object ⟨a, 1⟩: unknown memory content at a concrete
  // address. Recorded so repeated loads observe a consistent value.
  ++unknown_loads_;
  z3::expr fresh =
      env_->var("mem_" + std::to_string(addr), 8);
  bytes_.emplace(addr, fresh);
  return fresh;
}

SymValue MemoryModel::load(std::uint64_t addr, unsigned size_bytes,
                           bool sign_extend, wasm::ValType result_type) {
  const unsigned target_bits =
      (result_type == wasm::ValType::I32 || result_type == wasm::ValType::F32)
          ? 32
          : 64;
  const unsigned have = size_bytes * 8;

  // Fast path: all bytes present and concrete.
  bool all_concrete = true;
  std::uint64_t raw = 0;
  for (unsigned i = 0; i < size_bytes && all_concrete; ++i) {
    const auto it = bytes_.find(addr + i);
    if (it == bytes_.end() || !it->second.is_numeral()) {
      all_concrete = false;
    } else {
      raw |= it->second.get_numeral_uint64() << (i * 8);
    }
  }
  if (all_concrete) {
    if (sign_extend && have < 64) {
      raw = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(raw << (64 - have)) >>
          (64 - have));
    }
    if (target_bits == 32) raw = static_cast<std::uint32_t>(raw);
    return SymValue{result_type, env_->bv(raw, target_bits)};
  }

  z3::expr value = byte_at(addr);
  for (unsigned i = 1; i < size_bytes; ++i) {
    value = z3::concat(byte_at(addr + i), value);  // little-endian
  }
  if (have < target_bits) {
    value = sign_extend ? z3::sext(value, target_bits - have)
                        : z3::zext(value, target_bits - have);
  }
  return SymValue{result_type, env_->simplify(value)};
}

bool has_variables(const z3::expr& e) {
  if (e.is_numeral()) return false;
  if (e.is_const()) return true;  // uninterpreted constant (a variable)
  for (unsigned i = 0; i < e.num_args(); ++i) {
    if (has_variables(e.arg(i))) return true;
  }
  return false;
}

}  // namespace wasai::symbolic
