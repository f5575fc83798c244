// Symbolic counterparts of the Wasm numeric instructions (Table 3's unary /
// binary rows). All-concrete operands are evaluated with the interpreter's
// semantics; otherwise integer ops map directly onto Z3 bitvector theory and
// float ops degrade to fresh variables.
#pragma once

#include "symbolic/symvalue.hpp"
#include "wasm/opcode.hpp"

namespace wasai::symbolic {

SymValue sym_unary(Z3Env& env, wasm::Opcode op, const SymValue& x);
SymValue sym_binary(Z3Env& env, wasm::Opcode op, const SymValue& lhs,
                    const SymValue& rhs);

}  // namespace wasai::symbolic
