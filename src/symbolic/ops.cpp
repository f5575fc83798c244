#include "symbolic/ops.hpp"

#include "eosvm/vm.hpp"
#include "util/error.hpp"

namespace wasai::symbolic {

namespace {

using wasm::Opcode;
using wasm::ValType;

unsigned width_of(ValType t) {
  return (t == ValType::I32 || t == ValType::F32) ? 32 : 64;
}

/// Float op with a symbolic operand: a fresh unconstrained variable.
SymValue fresh_result(Z3Env& env, Opcode op) {
  const auto& info = wasm::op_info(op);
  return SymValue{info.result, env.fresh(info.name, width_of(info.result))};
}

z3::expr masked_shift(Z3Env& env, const z3::expr& amount, unsigned bits) {
  return amount & env.bv(bits - 1, bits);
}

z3::expr rotl_expr(Z3Env& env, const z3::expr& a, const z3::expr& n,
                   unsigned bits) {
  const z3::expr k = masked_shift(env, n, bits);
  return z3::shl(a, k) | z3::lshr(a, env.bv(bits, bits) - k);
}

z3::expr rotr_expr(Z3Env& env, const z3::expr& a, const z3::expr& n,
                   unsigned bits) {
  const z3::expr k = masked_shift(env, n, bits);
  return z3::lshr(a, k) | z3::shl(a, env.bv(bits, bits) - k);
}

}  // namespace

SymValue sym_unary(Z3Env& env, Opcode op, const SymValue& x) {
  if (const auto v = x.concrete()) {
    // Concrete operand: the interpreter computes the numeral Z3's
    // simplify() would reach. Only float truncations trap, and they have
    // no Z3 term to fall back on, so their trap propagates.
    const auto& info = wasm::op_info(op);
    const vm::Value r = vm::eval_unary_op(op, vm::Value{x.type, *v});
    return {info.result, env.bv(r.bits, width_of(info.result))};
  }
  switch (op) {
    case Opcode::I32Eqz:
    case Opcode::I64Eqz:
      return {ValType::I32,
              env.simplify(env.bool_to_bv32(x.e == env.bv(0, x.bits())))};
    case Opcode::I32WrapI64:
      return {ValType::I32, env.simplify(x.e.extract(31, 0))};
    case Opcode::I64ExtendI32S:
      return {ValType::I64, env.simplify(z3::sext(x.e, 32))};
    case Opcode::I64ExtendI32U:
      return {ValType::I64, env.simplify(z3::zext(x.e, 32))};
    case Opcode::I32ReinterpretF32:
      return {ValType::I32, x.e};
    case Opcode::I64ReinterpretF64:
      return {ValType::I64, x.e};
    case Opcode::F32ReinterpretI32:
      return {ValType::F32, x.e};
    case Opcode::F64ReinterpretI64:
      return {ValType::F64, x.e};
    default:
      // clz/ctz/popcnt and all float unaries/conversions.
      return fresh_result(env, op);
  }
}

SymValue sym_binary(Z3Env& env, Opcode op, const SymValue& a,
                    const SymValue& b) {
  const auto& info = wasm::op_info(op);
  const auto va = a.concrete();
  const auto vb = b.concrete();
  if (va && vb) {
    try {
      const vm::Value r = vm::eval_binary_op(op, vm::Value{a.type, *va},
                                             vm::Value{b.type, *vb});
      return {info.result, env.bv(r.bits, width_of(info.result))};
    } catch (const util::Trap&) {
      // div/rem by zero and INT_MIN / -1 trap in the interpreter but have
      // a defined value in bitvector theory: build it through Z3 below.
    }
  }
  const auto bv32 = [&](const z3::expr& cond) {
    return SymValue{ValType::I32, env.simplify(env.bool_to_bv32(cond))};
  };
  const auto arith = [&](const z3::expr& e) {
    return SymValue{info.result, env.simplify(e)};
  };
  switch (op) {
    // relational (i32/i64)
    case Opcode::I32Eq:
    case Opcode::I64Eq:
      return bv32(a.e == b.e);
    case Opcode::I32Ne:
    case Opcode::I64Ne:
      return bv32(a.e != b.e);
    case Opcode::I32LtS:
    case Opcode::I64LtS:
      return bv32(a.e < b.e);
    case Opcode::I32LtU:
    case Opcode::I64LtU:
      return bv32(z3::ult(a.e, b.e));
    case Opcode::I32GtS:
    case Opcode::I64GtS:
      return bv32(a.e > b.e);
    case Opcode::I32GtU:
    case Opcode::I64GtU:
      return bv32(z3::ugt(a.e, b.e));
    case Opcode::I32LeS:
    case Opcode::I64LeS:
      return bv32(a.e <= b.e);
    case Opcode::I32LeU:
    case Opcode::I64LeU:
      return bv32(z3::ule(a.e, b.e));
    case Opcode::I32GeS:
    case Opcode::I64GeS:
      return bv32(a.e >= b.e);
    case Opcode::I32GeU:
    case Opcode::I64GeU:
      return bv32(z3::uge(a.e, b.e));
    // arithmetic / bitwise
    case Opcode::I32Add:
    case Opcode::I64Add:
      return arith(a.e + b.e);
    case Opcode::I32Sub:
    case Opcode::I64Sub:
      return arith(a.e - b.e);
    case Opcode::I32Mul:
    case Opcode::I64Mul:
      return arith(a.e * b.e);
    case Opcode::I32DivS:
    case Opcode::I64DivS:
      return arith(a.e / b.e);  // bvsdiv
    case Opcode::I32DivU:
    case Opcode::I64DivU:
      return arith(z3::udiv(a.e, b.e));
    case Opcode::I32RemS:
    case Opcode::I64RemS:
      return arith(z3::srem(a.e, b.e));
    case Opcode::I32RemU:
    case Opcode::I64RemU:
      return arith(z3::urem(a.e, b.e));
    case Opcode::I32And:
    case Opcode::I64And:
      return arith(a.e & b.e);
    case Opcode::I32Or:
    case Opcode::I64Or:
      return arith(a.e | b.e);
    case Opcode::I32Xor:
    case Opcode::I64Xor:
      return arith(a.e ^ b.e);
    case Opcode::I32Shl:
    case Opcode::I64Shl:
      return arith(z3::shl(a.e, masked_shift(env, b.e, a.bits())));
    case Opcode::I32ShrS:
    case Opcode::I64ShrS:
      return arith(z3::ashr(a.e, masked_shift(env, b.e, a.bits())));
    case Opcode::I32ShrU:
    case Opcode::I64ShrU:
      return arith(z3::lshr(a.e, masked_shift(env, b.e, a.bits())));
    case Opcode::I32Rotl:
    case Opcode::I64Rotl:
      return arith(rotl_expr(env, a.e, b.e, a.bits()));
    case Opcode::I32Rotr:
    case Opcode::I64Rotr:
      return arith(rotr_expr(env, a.e, b.e, a.bits()));
    default:
      // Float arithmetic and comparisons.
      return fresh_result(env, op);
  }
}

}  // namespace wasai::symbolic
