// Symback tests: memory model, symbolic ops, trace replay, input inference,
// constraint flipping and adaptive-seed generation — exercised end-to-end
// through instrumented SDK-shaped contracts running on the local chain.
#include <gtest/gtest.h>

#include "abi/serializer.hpp"
#include "chain/controller.hpp"
#include "corpus/contract_builder.hpp"
#include "corpus/obfuscator.hpp"
#include "corpus/templates.hpp"
#include "instrument/instrumenter.hpp"
#include "instrument/trace_sink.hpp"
#include "symbolic/ops.hpp"
#include "symbolic/parallel_solver.hpp"
#include "symbolic/solver.hpp"
#include "util/rng.hpp"
#include "wasm/decoder.hpp"
#include "wasm/encoder.hpp"

namespace wasai::symbolic {
namespace {

using abi::eos;
using abi::name;
using abi::Name;
using abi::ParamValue;
using corpus::ContractBuilder;
using corpus::DispatcherStyle;
using instrument::Instrumented;
using wasm::Instr;
using wasm::Opcode;
using wasm::ValType;

// ------------------------------------------------------------ memory model

TEST(MemoryModel, StoreLoadRoundTripsSymbolicValue) {
  Z3Env env;
  MemoryModel mem(env);
  z3::expr v = env.var("x", 64);
  mem.store(100, SymValue{ValType::I64, v}, 8);
  const SymValue loaded = mem.load(100, 8, false, ValType::I64);
  // (loaded == x) must be valid.
  z3::solver s(env.ctx());
  s.add(loaded.e != v);
  EXPECT_EQ(s.check(), z3::unsat);
}

TEST(MemoryModel, OverlappingStoreWins) {
  Z3Env env;
  MemoryModel mem(env);
  mem.store(0, SymValue{ValType::I64, env.bv(0x1111111111111111ull, 64)}, 8);
  mem.store(2, SymValue{ValType::I32, env.bv(0xffffffffu, 32)}, 4);
  const SymValue loaded = mem.load(0, 8, false, ValType::I64);
  ASSERT_TRUE(loaded.is_concrete());
  EXPECT_EQ(loaded.concrete().value(), 0x1111ffffffff1111ull);
}

TEST(MemoryModel, UnknownLoadCreatesStableSymbolicLoadObject) {
  Z3Env env;
  MemoryModel mem(env);
  const SymValue a = mem.load(500, 4, false, ValType::I32);
  const SymValue b = mem.load(500, 4, false, ValType::I32);
  EXPECT_EQ(mem.unknown_loads(), 4u);  // four fresh bytes, reused by b
  z3::solver s(env.ctx());
  s.add(a.e != b.e);
  EXPECT_EQ(s.check(), z3::unsat);  // repeated loads agree
}

TEST(MemoryModel, NarrowLoadSignExtends) {
  Z3Env env;
  MemoryModel mem(env);
  mem.store(10, SymValue{ValType::I32, env.bv(0x80, 32)}, 1);
  const SymValue s_ext = mem.load(10, 1, true, ValType::I32);
  const SymValue z_ext = mem.load(10, 1, false, ValType::I32);
  EXPECT_EQ(s_ext.concrete().value(), 0xffffff80u);
  EXPECT_EQ(z_ext.concrete().value(), 0x80u);
}

TEST(MemoryModel, BindSeedsParameterBytes) {
  Z3Env env;
  MemoryModel mem(env);
  z3::expr amount = env.var("amount", 64);
  mem.bind(1040, amount, 8);
  const SymValue lo = mem.load(1040, 4, false, ValType::I32);
  z3::solver s(env.ctx());
  s.add(lo.e != amount.extract(31, 0));
  EXPECT_EQ(s.check(), z3::unsat);
}

// ------------------------------------------------------------ symbolic ops

TEST(SymOps, ConcreteFolding) {
  Z3Env env;
  const SymValue a{ValType::I64, env.bv(30, 64)};
  const SymValue b{ValType::I64, env.bv(12, 64)};
  EXPECT_EQ(sym_binary(env, Opcode::I64Add, a, b).concrete().value(), 42u);
  EXPECT_EQ(sym_binary(env, Opcode::I64GtS, a, b).concrete().value(), 1u);
  EXPECT_EQ(sym_unary(env, Opcode::I64Eqz, a).concrete().value(), 0u);
  EXPECT_EQ(sym_unary(env, Opcode::I32WrapI64,
                      SymValue{ValType::I64, env.bv(0xaabbccdd11223344ull, 64)})
                .concrete()
                .value(),
            0x11223344u);
}

TEST(SymOps, SymbolicComparisonSolvable) {
  Z3Env env;
  z3::expr x = env.var("x", 64);
  const SymValue cmp = sym_binary(env, Opcode::I64Eq,
                                  SymValue{ValType::I64, x},
                                  SymValue{ValType::I64, env.bv(77, 64)});
  z3::solver s(env.ctx());
  s.add(env.truthy(cmp.e));
  ASSERT_EQ(s.check(), z3::sat);
  EXPECT_EQ(s.get_model().eval(x, true).get_numeral_uint64(), 77u);
}

TEST(SymOps, ShiftsAndRotatesMatchInterpreter) {
  Z3Env env;
  util::Rng rng(5);
  const Opcode ops[] = {Opcode::I64Shl,  Opcode::I64ShrS, Opcode::I64ShrU,
                        Opcode::I64Rotl, Opcode::I64Rotr, Opcode::I64Mul,
                        Opcode::I64Sub,  Opcode::I64DivU, Opcode::I64RemS};
  for (int i = 0; i < 200; ++i) {
    const Opcode op = ops[rng.below(std::size(ops))];
    const std::uint64_t x = rng.next();
    std::uint64_t y = rng.next();
    if ((op == Opcode::I64DivU || op == Opcode::I64RemS) && y == 0) y = 3;
    const auto expected =
        vm::eval_binary_op(op, vm::Value::i64(x), vm::Value::i64(y));
    const auto got = sym_binary(env, op, SymValue{ValType::I64, env.bv(x, 64)},
                                SymValue{ValType::I64, env.bv(y, 64)});
    ASSERT_TRUE(got.is_concrete()) << wasm::op_info(op).name;
    ASSERT_EQ(got.concrete().value(), expected.bits)
        << wasm::op_info(op).name << " x=" << x << " y=" << y;
  }
}

TEST(SymOps, FloatFallbackProducesFreshVarForSymbolicOperands) {
  Z3Env env;
  z3::expr x = env.var("x", 64);
  const auto r = sym_binary(env, Opcode::F64Add, SymValue{ValType::F64, x},
                            SymValue{ValType::F64, env.bv(0, 64)});
  EXPECT_EQ(r.type, ValType::F64);
  EXPECT_FALSE(r.is_concrete());
}

// ----------------------------------------------------- end-to-end replay

/// Harness: a deployed, instrumented one-action contract + trace capture.
class ReplayFixture {
 public:
  explicit ReplayFixture(std::vector<Instr> transfer_body,
                         std::vector<ValType> extra_locals = {}) {
    ContractBuilder builder;
    env_imports_ = builder.env();
    corpus::ActionOptions opts;
    opts.require_code_match = false;  // eosponser accepts notifications
    builder.add_action(abi::transfer_action_def(), std::move(extra_locals),
                       std::move(transfer_body), opts);
    abi_ = builder.abi();
    original_ = std::move(builder).build_module(DispatcherStyle::Standard);
    const Instrumented inst = instrument::instrument(original_);
    sites_ = inst.sites;
    chain_.set_observer(&sink_);
    chain_.deploy_contract(victim_, wasm::encode(inst.module), abi_);
    chain_.create_account(attacker_);
  }

  /// Execute transfer@victim directly with the given params; returns the
  /// victim's trace.
  const instrument::ActionTrace& run(std::vector<ParamValue> params) {
    sink_.clear();
    chain::Action act;
    act.account = victim_;
    act.name = name("transfer");
    act.authorization = {chain::active(attacker_)};
    act.data = abi::pack(abi::transfer_action_def(), params);
    last_params_ = std::move(params);
    last_result_ = chain_.push_transaction(chain::Transaction{{act}});
    const auto traces = sink_.actions_of(victim_);
    if (traces.empty()) throw util::UsageError("no trace captured");
    return *traces.front();
  }

  ReplayResult replay_last(const instrument::ActionTrace& trace) {
    const auto site = locate_action_call(trace, sites_, original_);
    EXPECT_TRUE(site.has_value());
    return replay(env_, original_, sites_, trace, *site,
                  *abi_.find(name("transfer")), last_params_);
  }

  Z3Env env_;
  chain::Controller chain_;
  instrument::TraceSink sink_;
  wasm::Module original_;
  instrument::SiteTable sites_;
  abi::Abi abi_;
  corpus::EnvImports env_imports_;
  Name victim_ = name("victim");
  Name attacker_ = name("attacker");
  std::vector<ParamValue> last_params_;
  chain::TxResult last_result_;
};

std::vector<ParamValue> default_seed(std::int64_t amount,
                                     const std::string& memo = "m") {
  return {name("attacker"), name("victim"), eos(amount), memo};
}

/// transfer body: if (quantity.amount == 1337) tapos_block_num().
std::vector<Instr> amount_eq_branch_body(const corpus::EnvImports& env) {
  return {
      wasm::local_get(3),
      wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(1337),
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
}

TEST(Replay, LocatesActionFunctionAndCapturedArgs) {
  ContractBuilder probe;  // only to learn the import layout
  ReplayFixture fx(amount_eq_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5));
  const auto site = locate_action_call(trace, fx.sites_, fx.original_);
  ASSERT_TRUE(site.has_value());
  // transfer(self, from, to, qty*, memo*) = 5 captured args.
  EXPECT_EQ(site->concrete_args.size(), 5u);
  EXPECT_EQ(site->concrete_args[0].u64(), name("victim").value());
  EXPECT_EQ(site->concrete_args[1].u64(), name("attacker").value());
  EXPECT_EQ(site->concrete_args[3].u32(), corpus::kActionBuf + 16);
}

TEST(Replay, RecordsSymbolicBranchWithConcreteDirection) {
  ContractBuilder probe;
  ReplayFixture fx(amount_eq_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5));
  const ReplayResult r = fx.replay_last(trace);
  EXPECT_TRUE(r.completed_scope);
  EXPECT_FALSE(r.trapped);
  ASSERT_EQ(r.path.size(), 1u);
  EXPECT_FALSE(r.path[0].taken);  // 5 != 1337
  EXPECT_TRUE(r.path[0].can_flip);
  EXPECT_TRUE(r.function_chain.size() >= 1);
}

TEST(Replay, FlipSolvesAmountEquality) {
  ContractBuilder probe;
  ReplayFixture fx(amount_eq_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5));
  const ReplayResult r = fx.replay_last(trace);
  Z3Env& env = fx.env_;
  const auto adaptive = solve_flips(env, r, fx.last_params_);
  ASSERT_EQ(adaptive.sat, 1u);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  const auto& mutated = adaptive.seeds[0];
  EXPECT_EQ(std::get<abi::Asset>(mutated[2]).amount, 1337);

  // Execute the adaptive seed: the deep branch must now run.
  const auto& trace2 = fx.run(mutated);
  const ReplayResult r2 = fx.replay_last(trace2);
  bool tapos_called = false;
  for (const auto& api : r2.api_calls) {
    tapos_called |= (api.name == "tapos_block_num");
  }
  EXPECT_TRUE(tapos_called);
  EXPECT_TRUE(r2.path[0].taken);
}

TEST(Replay, FailedAssertBecomesFlipCandidate) {
  // eosio_assert(amount >= 1000) then tapos.
  ContractBuilder probe;
  const auto env = probe.env();
  std::vector<Instr> body = {
      wasm::local_get(3),
      wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(1000),
      Instr(Opcode::I64GeS),
      wasm::i32_const(corpus::kMsgRegion),
      wasm::call(env.eosio_assert),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
  };
  ReplayFixture fx(body);
  const auto& trace = fx.run(default_seed(5));
  EXPECT_FALSE(fx.last_result_.success);  // the assert reverted the tx
  const ReplayResult r = fx.replay_last(trace);
  EXPECT_TRUE(r.trapped);
  ASSERT_EQ(r.path.size(), 1u);
  EXPECT_TRUE(r.path[0].is_assert);
  EXPECT_TRUE(r.path[0].can_flip);

  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  EXPECT_GE(std::get<abi::Asset>(adaptive.seeds[0][2]).amount, 1000);

  const auto& trace2 = fx.run(adaptive.seeds[0]);
  EXPECT_TRUE(fx.last_result_.success) << fx.last_result_.error;
  const ReplayResult r2 = fx.replay_last(trace2);
  bool tapos_called = false;
  for (const auto& api : r2.api_calls) {
    tapos_called |= (api.name == "tapos_block_num");
  }
  EXPECT_TRUE(tapos_called);
}

TEST(Replay, PassedAssertBecomesPathConstraint) {
  ContractBuilder probe;
  const auto env = probe.env();
  // assert(amount >= 1); if (amount == 42) tapos;
  std::vector<Instr> body = {
      wasm::local_get(3), wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(1), Instr(Opcode::I64GeS),
      wasm::i32_const(corpus::kMsgRegion), wasm::call(env.eosio_assert),
      wasm::local_get(3), wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(42), Instr(Opcode::I64Eq), wasm::if_(),
      wasm::call(env.tapos_block_num), Instr(Opcode::Drop),
      Instr(Opcode::End), Instr(Opcode::End)};
  ReplayFixture fx(body);
  const auto& trace = fx.run(default_seed(7));
  const ReplayResult r = fx.replay_last(trace);
  ASSERT_EQ(r.path.size(), 2u);
  EXPECT_TRUE(r.path[0].is_assert);
  EXPECT_FALSE(r.path[0].can_flip);  // passed assert: constraint, not flip
  EXPECT_TRUE(r.path[1].can_flip);

  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  // The flip target respects the earlier assert: amount == 42 (>= 1).
  EXPECT_EQ(std::get<abi::Asset>(adaptive.seeds[0][2]).amount, 42);
}

TEST(Replay, StringByteConstraintSolved) {
  ContractBuilder probe;
  const auto env = probe.env();
  // if (memo[0] == 'x') tapos;   (memo content byte at ptr+1)
  std::vector<Instr> body = {
      wasm::local_get(4),
      wasm::mem_load(Opcode::I32Load8U, /*offset=*/1),
      wasm::i32_const('x'),
      Instr(Opcode::I32Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  ReplayFixture fx(body);
  const auto& trace = fx.run(default_seed(5, "m"));
  const ReplayResult r = fx.replay_last(trace);
  ASSERT_EQ(r.path.size(), 1u);
  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  EXPECT_EQ(std::get<std::string>(adaptive.seeds[0][3])[0], 'x');
}

TEST(Replay, NameParameterConstraint) {
  ContractBuilder probe;
  const auto env = probe.env();
  // Fake Notif guard shape: if (to == self) tapos; — operands recorded.
  std::vector<Instr> body = {
      wasm::local_get(2),  // to
      wasm::local_get(0),  // self
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  ReplayFixture fx(body);
  const auto& trace = fx.run(default_seed(5));
  const ReplayResult r = fx.replay_last(trace);
  // The i64.eq operands were captured concretely for the guard oracle.
  ASSERT_EQ(r.i64_comparisons.size(), 1u);
  EXPECT_EQ(r.i64_comparisons[0].lhs, name("victim").value());
  EXPECT_EQ(r.i64_comparisons[0].rhs, name("victim").value());

  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  // Flip: to != victim.
  EXPECT_NE(std::get<Name>(adaptive.seeds[0][1]), name("victim"));
}

TEST(Replay, NestedVerificationChainSolvedIteratively) {
  // Two nested equality checks on from/amount: each replay exposes the
  // next branch, as in the fuzzing loop of Algorithm 1.
  ContractBuilder probe;
  const auto env = probe.env();
  std::vector<Instr> body = {
      wasm::local_get(1),                           // from
      wasm::i64_const_u(name("lucky").value()),
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::local_get(3),
      wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(999),
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  ReplayFixture fx(body);
  // Round 1: random seed, outer branch false.
  auto params = default_seed(5);
  const auto r1 = fx.replay_last(fx.run(params));
  ASSERT_EQ(r1.path.size(), 1u);
  auto seeds1 = solve_flips(fx.env_, r1, params);
  ASSERT_EQ(seeds1.seeds.size(), 1u);
  EXPECT_EQ(std::get<Name>(seeds1.seeds[0][0]), name("lucky"));

  // Round 2: adaptive seed reaches the inner branch.
  const auto r2 = fx.replay_last(fx.run(seeds1.seeds[0]));
  ASSERT_EQ(r2.path.size(), 2u);
  auto seeds2 = solve_flips(fx.env_, r2, seeds1.seeds[0]);
  // Flips: outer (back to false) and inner (amount == 999).
  ASSERT_EQ(seeds2.seeds.size(), 2u);
  const auto& final_seed = seeds2.seeds[1];
  EXPECT_EQ(std::get<Name>(final_seed[0]), name("lucky"));
  EXPECT_EQ(std::get<abi::Asset>(final_seed[2]).amount, 999);

  // Round 3: the jackpot path executes.
  const auto r3 = fx.replay_last(fx.run(final_seed));
  bool tapos_called = false;
  for (const auto& api : r3.api_calls) {
    tapos_called |= (api.name == "tapos_block_num");
  }
  EXPECT_TRUE(tapos_called);
}

TEST(ParallelSolver, SeedsMatchSerialForAnyThreadCount) {
  ContractBuilder probe;
  const auto env = probe.env();
  // Three independent flippable branches over different parameters, so the
  // serial solver emits three adaptive seeds in path order.
  std::vector<Instr> body = {
      // if (amount == 1337) tapos
      wasm::local_get(3), wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(1337), Instr(Opcode::I64Eq), wasm::if_(),
      wasm::call(env.tapos_block_num), Instr(Opcode::Drop),
      Instr(Opcode::End),
      // if (from == lucky) tapos
      wasm::local_get(1), wasm::i64_const_u(name("lucky").value()),
      Instr(Opcode::I64Eq), wasm::if_(), wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop), Instr(Opcode::End),
      // if (memo[0] == 'x') tapos
      wasm::local_get(4), wasm::mem_load(Opcode::I32Load8U, /*offset=*/1),
      wasm::i32_const('x'), Instr(Opcode::I32Eq), wasm::if_(),
      wasm::call(env.tapos_block_num), Instr(Opcode::Drop),
      Instr(Opcode::End), Instr(Opcode::End)};
  ReplayFixture fx(body);
  const auto& trace = fx.run(default_seed(5, "m"));
  const ReplayResult r = fx.replay_last(trace);
  ASSERT_EQ(r.path.size(), 3u);

  const auto serial = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(serial.seeds.size(), 3u);
  EXPECT_EQ(std::get<abi::Asset>(serial.seeds[0][2]).amount, 1337);
  EXPECT_EQ(std::get<Name>(serial.seeds[1][0]), name("lucky"));
  EXPECT_EQ(std::get<std::string>(serial.seeds[2][3])[0], 'x');

  for (const unsigned threads : {1u, 2u, 4u}) {
    const auto parallel =
        solve_flips_parallel(fx.env_, r, fx.last_params_, {}, threads);
    EXPECT_EQ(parallel.queries, serial.queries) << threads << " threads";
    EXPECT_EQ(parallel.sat, serial.sat);
    EXPECT_EQ(parallel.unsat, serial.unsat);
    EXPECT_EQ(parallel.unknown, serial.unknown);
    ASSERT_EQ(parallel.seeds.size(), serial.seeds.size());
    // Seed-by-seed, parameter-by-parameter identity with the serial order.
    for (std::size_t i = 0; i < serial.seeds.size(); ++i) {
      ASSERT_EQ(parallel.seeds[i].size(), serial.seeds[i].size());
      for (std::size_t j = 0; j < serial.seeds[i].size(); ++j) {
        EXPECT_EQ(abi::to_string(parallel.seeds[i][j]),
                  abi::to_string(serial.seeds[i][j]))
            << threads << " threads, seed " << i << ", param " << j;
      }
    }
  }
}

TEST(ParallelSolver, IntraBatchDuplicatesMatchSerialCacheSemantics) {
  // Two flippable steps with no holds between them carry the same
  // (prefix, flip) cache key. The serial walk answers the second from the
  // cache entry the first inserted (one query, one hit); the parallel
  // pre-pass must deduplicate instead of dispatching both, or each copy
  // gets an independent, timing-dependent verdict (one can overshoot the
  // hard cap while the other lands sat) and the counters/seed stream
  // diverge from serial.
  Z3Env env;
  const z3::expr x = env.var("p0", 64);
  ReplayResult r;
  PathStep step;
  step.site = 1;
  step.can_flip = true;
  step.taken = false;
  step.flip = (x == env.bv(5, 64));
  r.path.push_back(step);
  step.site = 2;  // identical flip, no hold in between: same query key
  r.path.push_back(step);
  r.bindings.push_back(
      InputBinding{0, InputBinding::Kind::Whole, 0, x});
  const std::vector<ParamValue> params = {std::uint64_t{0}};

  SolverCache serial_cache(16);
  SolverOptions serial_opts;
  serial_opts.cache = &serial_cache;
  const auto serial = solve_flips(env, r, params, serial_opts);
  EXPECT_EQ(serial.queries, 1u);
  EXPECT_EQ(serial.cache_misses, 1u);
  EXPECT_EQ(serial.cache_hits, 1u);
  EXPECT_EQ(serial.sat, 2u);
  ASSERT_EQ(serial.seeds.size(), 2u);

  for (const unsigned threads : {1u, 2u, 4u}) {
    SolverCache cache(16);
    SolverOptions opts;
    opts.cache = &cache;
    const auto parallel = solve_flips_parallel(env, r, params, opts, threads);
    EXPECT_EQ(parallel.queries, serial.queries) << threads << " threads";
    EXPECT_EQ(parallel.cache_hits, serial.cache_hits) << threads;
    EXPECT_EQ(parallel.cache_misses, serial.cache_misses) << threads;
    EXPECT_EQ(parallel.sat, serial.sat);
    ASSERT_EQ(parallel.seeds.size(), serial.seeds.size());
    for (std::size_t i = 0; i < serial.seeds.size(); ++i) {
      ASSERT_EQ(parallel.seeds[i].size(), serial.seeds[i].size());
      EXPECT_EQ(abi::to_string(parallel.seeds[i][0]),
                abi::to_string(serial.seeds[i][0]))
          << threads << " threads, seed " << i;
    }
  }
}

TEST(Solver, CancelledTokenAbortsBeforeAnyQuery) {
  ContractBuilder probe;
  ReplayFixture fx(amount_eq_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5));
  const ReplayResult r = fx.replay_last(trace);

  const auto token = util::CancelToken::with_deadline(0);
  token->cancel();
  SolverOptions opts;
  opts.cancel = token.get();
  const auto serial = solve_flips(fx.env_, r, fx.last_params_, opts);
  EXPECT_TRUE(serial.aborted);
  EXPECT_EQ(serial.queries, 0u);
  EXPECT_TRUE(serial.seeds.empty());

  const auto parallel =
      solve_flips_parallel(fx.env_, r, fx.last_params_, opts, 2);
  EXPECT_TRUE(parallel.aborted);
  EXPECT_EQ(parallel.queries, 0u);
  EXPECT_TRUE(parallel.seeds.empty());
}

TEST(Solver, ReportsWallTimeAndRespectsWallBudget) {
  ContractBuilder probe;
  ReplayFixture fx(amount_eq_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5));
  const ReplayResult r = fx.replay_last(trace);

  const auto normal = solve_flips(fx.env_, r, fx.last_params_);
  EXPECT_GT(normal.wall_ms, 0.0);
  EXPECT_FALSE(normal.aborted);

  // A wall budget that is already exhausted by the time the first flip is
  // considered cannot issue queries... but 0 means "unlimited", so use an
  // expired cancel token via with_deadline to emulate the exhausted case
  // and a tiny-but-nonzero budget to exercise the branch.
  SolverOptions opts;
  opts.wall_budget_ms = 1;
  const auto budgeted = solve_flips(fx.env_, r, fx.last_params_, opts);
  // One flip target: either it ran inside the budget or the call aborted —
  // both are legal; what matters is that accounting stays consistent
  // (sat_late counts sat verdicts past the hard cap, models discarded).
  EXPECT_EQ(budgeted.queries, budgeted.sat + budgeted.sat_late +
                                  budgeted.unsat + budgeted.unknown);
}

// Three flippable branches over different parameters — the workload the
// perf-layer parity tests below share.
std::vector<Instr> three_branch_body(const corpus::EnvImports& env) {
  return {
      // if (amount == 1337) tapos
      wasm::local_get(3), wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(1337), Instr(Opcode::I64Eq), wasm::if_(),
      wasm::call(env.tapos_block_num), Instr(Opcode::Drop),
      Instr(Opcode::End),
      // if (from == lucky) tapos
      wasm::local_get(1), wasm::i64_const_u(name("lucky").value()),
      Instr(Opcode::I64Eq), wasm::if_(), wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop), Instr(Opcode::End),
      // if (memo[0] == 'x') tapos
      wasm::local_get(4), wasm::mem_load(Opcode::I32Load8U, /*offset=*/1),
      wasm::i32_const('x'), Instr(Opcode::I32Eq), wasm::if_(),
      wasm::call(env.tapos_block_num), Instr(Opcode::Drop),
      Instr(Opcode::End), Instr(Opcode::End)};
}

void expect_same_seeds(const AdaptiveSeeds& actual,
                       const AdaptiveSeeds& expected, const char* label) {
  ASSERT_EQ(actual.seeds.size(), expected.seeds.size()) << label;
  for (std::size_t i = 0; i < expected.seeds.size(); ++i) {
    ASSERT_EQ(actual.seeds[i].size(), expected.seeds[i].size()) << label;
    for (std::size_t j = 0; j < expected.seeds[i].size(); ++j) {
      EXPECT_EQ(abi::to_string(actual.seeds[i][j]),
                abi::to_string(expected.seeds[i][j]))
          << label << ", seed " << i << ", param " << j;
    }
  }
}

TEST(Solver, SerialInContextMatchesParallelExport) {
  // The serial walk decides each flip in the analysis's context; parallel
  // workers decide the exported SMT-LIB2 text in contexts of their own.
  // Both must give the same verdicts and seeds, with and without a cache.
  ContractBuilder probe;
  ReplayFixture fx(three_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5, "m"));
  const ReplayResult r = fx.replay_last(trace);
  ASSERT_EQ(r.path.size(), 3u);

  for (const bool cached : {false, true}) {
    SolverCache serial_cache(64);
    SolverCache parallel_cache(64);
    SolverOptions serial_opts;
    SolverOptions parallel_opts;
    if (cached) {
      serial_opts.cache = &serial_cache;
      parallel_opts.cache = &parallel_cache;
    }
    const auto serial = solve_flips(fx.env_, r, fx.last_params_, serial_opts);
    ASSERT_EQ(serial.seeds.size(), 3u);
    const auto parallel =
        solve_flips_parallel(fx.env_, r, fx.last_params_, parallel_opts, 2);
    const char* label = cached ? "cached" : "uncached";
    EXPECT_EQ(parallel.queries, serial.queries) << label;
    EXPECT_EQ(parallel.sat, serial.sat) << label;
    EXPECT_EQ(parallel.unsat, serial.unsat) << label;
    EXPECT_EQ(parallel.unknown, serial.unknown) << label;
    EXPECT_EQ(parallel.cache_misses, serial.cache_misses) << label;
    expect_same_seeds(parallel, serial, label);
  }
}

TEST(Solver, CachedRerunAnswersEveryFlipWithoutZ3) {
  ContractBuilder probe;
  ReplayFixture fx(three_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5, "m"));
  const ReplayResult r = fx.replay_last(trace);

  const auto uncached = solve_flips(fx.env_, r, fx.last_params_);

  SolverCache cache(64);
  SolverOptions opts;
  opts.cache = &cache;
  const auto first = solve_flips(fx.env_, r, fx.last_params_, opts);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_misses, first.queries);
  expect_same_seeds(first, uncached, "first cached vs uncached");

  const auto second = solve_flips(fx.env_, r, fx.last_params_, opts);
  EXPECT_EQ(second.queries, 0u);  // every flip answered by the cache
  EXPECT_EQ(second.cache_hits, first.queries);
  EXPECT_EQ(second.sat, first.sat);
  EXPECT_EQ(second.unsat, first.unsat);
  expect_same_seeds(second, first, "second cached vs first");
  EXPECT_EQ(cache.stats().hits, second.cache_hits);
  EXPECT_EQ(cache.stats().entries, first.queries);
}

TEST(ParallelSolver, SharesCacheAndSeedStreamWithSerial) {
  ContractBuilder probe;
  ReplayFixture fx(three_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5, "m"));
  const ReplayResult r = fx.replay_last(trace);

  SolverCache serial_cache(64);
  SolverOptions serial_opts;
  serial_opts.cache = &serial_cache;
  const auto serial = solve_flips(fx.env_, r, fx.last_params_, serial_opts);

  // A fresh cache populated by the parallel pre-pass/merge must produce
  // the same stream, then answer a rerun entirely from memory.
  SolverCache parallel_cache(64);
  SolverOptions parallel_opts;
  parallel_opts.cache = &parallel_cache;
  const auto first =
      solve_flips_parallel(fx.env_, r, fx.last_params_, parallel_opts, 2);
  EXPECT_EQ(first.queries, serial.queries);
  EXPECT_EQ(first.cache_misses, serial.cache_misses);
  expect_same_seeds(first, serial, "parallel+cache vs serial+cache");

  const auto second =
      solve_flips_parallel(fx.env_, r, fx.last_params_, parallel_opts, 2);
  EXPECT_EQ(second.queries, 0u);
  EXPECT_EQ(second.cache_hits, first.queries);
  expect_same_seeds(second, first, "parallel rerun from cache");

  // Cross-pollination: a serial walk can consume what the parallel run
  // cached.
  const auto cross =
      solve_flips(fx.env_, r, fx.last_params_, parallel_opts);
  EXPECT_EQ(cross.queries, 0u);
  expect_same_seeds(cross, serial, "serial walk over parallel cache");
}

TEST(ParallelSolver, MergeStopsAtFirstUnattemptedMissUnderCancellation) {
  ContractBuilder probe;
  ReplayFixture fx(three_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5, "m"));
  const ReplayResult r = fx.replay_last(trace);

  // Capacity-1 LRU: a full serial walk leaves only the LAST flip's verdict
  // cached, so a rerun sees [miss, miss, hit] in path order.
  SolverCache cache(1);
  SolverOptions opts;
  opts.cache = &cache;
  const auto warm = solve_flips(fx.env_, r, fx.last_params_, opts);
  ASSERT_EQ(warm.queries, 3u);
  ASSERT_EQ(cache.stats().entries, 1u);

  // Cancel before any worker dequeues: every miss stays unattempted. The
  // merge must stop at the FIRST unattempted miss and emit nothing past
  // it — not even the later cache hit — because the serial walk's abort
  // break would never have reached that flip either. Emitting it would
  // fork the adaptive-seed stream between serial and parallel solving.
  const auto token = util::CancelToken::with_deadline(0);
  token->cancel();
  opts.cancel = token.get();
  const auto aborted =
      solve_flips_parallel(fx.env_, r, fx.last_params_, opts, 2);
  EXPECT_TRUE(aborted.aborted);
  EXPECT_EQ(aborted.queries, 0u);
  EXPECT_EQ(aborted.cache_hits, 0u);  // the hit lies past the abort point
  EXPECT_EQ(aborted.sat, 0u);
  EXPECT_EQ(aborted.unsat, 0u);
  EXPECT_TRUE(aborted.seeds.empty());

  // Sanity: without cancellation the same cache state merges hits and
  // fresh verdicts back into the full serial stream.
  opts.cancel = nullptr;
  const auto resumed =
      solve_flips_parallel(fx.env_, r, fx.last_params_, opts, 2);
  EXPECT_FALSE(resumed.aborted);
  EXPECT_GE(resumed.cache_hits, 1u);
  expect_same_seeds(resumed, warm, "post-abort rerun vs warm serial walk");
}

TEST(Replay, DbApiCallsRecordedWithConcreteArgs) {
  ContractBuilder probe;
  const auto env = probe.env();
  // db_find(self, self, "tab", 1); store result; no branching.
  std::vector<Instr> body = {
      wasm::local_get(0), wasm::local_get(0),
      wasm::i64_const_u(name("tab").value()), wasm::i64_const(1),
      wasm::call(env.db_find), Instr(Opcode::Drop), Instr(Opcode::End)};
  ReplayFixture fx(body);
  const auto r = fx.replay_last(fx.run(default_seed(5)));
  ASSERT_EQ(r.api_calls.size(), 1u);
  EXPECT_EQ(r.api_calls[0].name, "db_find_i64");
  EXPECT_TRUE(r.api_calls[0].completed);
  ASSERT_EQ(r.api_calls[0].args.size(), 4u);
  EXPECT_EQ(r.api_calls[0].args[2].concrete().value(),
            name("tab").value());
  ASSERT_TRUE(r.api_calls[0].ret.has_value());
  EXPECT_EQ(r.api_calls[0].ret->s32(), -1);  // row absent
}

// ------------------------------------------------- concrete fold parity

/// The bitvector encoding sym_unary uses for a symbolic operand, built
/// with the raw context so neither Z3Env cache is involved.
z3::expr z3_unary_term(z3::context& c, Opcode op, const z3::expr& x) {
  switch (op) {
    case Opcode::I32Eqz:
    case Opcode::I64Eqz:
      return z3::ite(x == c.bv_val(0, x.get_sort().bv_size()),
                     c.bv_val(1, 32), c.bv_val(0, 32));
    case Opcode::I32WrapI64:
      return x.extract(31, 0);
    case Opcode::I64ExtendI32S:
      return z3::sext(x, 32);
    case Opcode::I64ExtendI32U:
      return z3::zext(x, 32);
    default:  // the four reinterprets keep the bit pattern
      return x;
  }
}

/// The bitvector encoding sym_binary uses for symbolic operands.
z3::expr z3_binary_term(z3::context& c, Opcode op, const z3::expr& a,
                        const z3::expr& b) {
  const unsigned w = a.get_sort().bv_size();
  const z3::expr k = b & c.bv_val(w - 1, w);
  const auto bool32 = [&](const z3::expr& cond) {
    return z3::ite(cond, c.bv_val(1, 32), c.bv_val(0, 32));
  };
  switch (op) {
    case Opcode::I32Eq:
    case Opcode::I64Eq:
      return bool32(a == b);
    case Opcode::I32Ne:
    case Opcode::I64Ne:
      return bool32(a != b);
    case Opcode::I32LtS:
    case Opcode::I64LtS:
      return bool32(a < b);
    case Opcode::I32LtU:
    case Opcode::I64LtU:
      return bool32(z3::ult(a, b));
    case Opcode::I32GtS:
    case Opcode::I64GtS:
      return bool32(a > b);
    case Opcode::I32GtU:
    case Opcode::I64GtU:
      return bool32(z3::ugt(a, b));
    case Opcode::I32LeS:
    case Opcode::I64LeS:
      return bool32(a <= b);
    case Opcode::I32LeU:
    case Opcode::I64LeU:
      return bool32(z3::ule(a, b));
    case Opcode::I32GeS:
    case Opcode::I64GeS:
      return bool32(a >= b);
    case Opcode::I32GeU:
    case Opcode::I64GeU:
      return bool32(z3::uge(a, b));
    case Opcode::I32Add:
    case Opcode::I64Add:
      return a + b;
    case Opcode::I32Sub:
    case Opcode::I64Sub:
      return a - b;
    case Opcode::I32Mul:
    case Opcode::I64Mul:
      return a * b;
    case Opcode::I32DivS:
    case Opcode::I64DivS:
      return a / b;
    case Opcode::I32DivU:
    case Opcode::I64DivU:
      return z3::udiv(a, b);
    case Opcode::I32RemS:
    case Opcode::I64RemS:
      return z3::srem(a, b);
    case Opcode::I32RemU:
    case Opcode::I64RemU:
      return z3::urem(a, b);
    case Opcode::I32And:
    case Opcode::I64And:
      return a & b;
    case Opcode::I32Or:
    case Opcode::I64Or:
      return a | b;
    case Opcode::I32Xor:
    case Opcode::I64Xor:
      return a ^ b;
    case Opcode::I32Shl:
    case Opcode::I64Shl:
      return z3::shl(a, k);
    case Opcode::I32ShrS:
    case Opcode::I64ShrS:
      return z3::ashr(a, k);
    case Opcode::I32ShrU:
    case Opcode::I64ShrU:
      return z3::lshr(a, k);
    case Opcode::I32Rotl:
    case Opcode::I64Rotl:
      return z3::shl(a, k) | z3::lshr(a, c.bv_val(w, w) - k);
    case Opcode::I32Rotr:
    case Opcode::I64Rotr:
      return z3::lshr(a, k) | z3::shl(a, c.bv_val(w, w) - k);
    default:
      throw util::UsageError("no bitvector encoding");
  }
}

/// 0, 1, all-ones, INT_MIN and the shift/rotate counts 0/31/32/63/64/65,
/// truncated to the operand width.
std::vector<std::uint64_t> edge_operands(unsigned bits) {
  const std::uint64_t mask = bits == 64 ? ~0ull : (1ull << bits) - 1;
  std::vector<std::uint64_t> out;
  for (const std::uint64_t v :
       {0ull, 1ull, ~0ull, 1ull << (bits - 1), 31ull, 32ull, 63ull, 64ull,
        65ull}) {
    out.push_back(v & mask);
  }
  return out;
}

bool interpreter_traps(Opcode op, const vm::Value& a, const vm::Value& b) {
  try {
    vm::eval_binary_op(op, a, b);
    return false;
  } catch (const util::Trap&) {
    return true;
  }
}

TEST(SymOps, ConcreteFoldMatchesSimplifiedBitvectorTerm) {
  const Opcode unary_ops[] = {
      Opcode::I32Eqz,            Opcode::I64Eqz,
      Opcode::I32WrapI64,        Opcode::I64ExtendI32S,
      Opcode::I64ExtendI32U,     Opcode::I32ReinterpretF32,
      Opcode::I64ReinterpretF64, Opcode::F32ReinterpretI32,
      Opcode::F64ReinterpretI64};
  for (const Opcode op : unary_ops) {
    Z3Env env;
    const ValType t = wasm::op_info(op).operand;
    const unsigned bits = (t == ValType::I32 || t == ValType::F32) ? 32 : 64;
    for (const std::uint64_t x : edge_operands(bits)) {
      const SymValue got = sym_unary(env, op, SymValue{t, env.bv(x, bits)});
      const z3::expr want =
          z3_unary_term(env.ctx(), op, env.ctx().bv_val(x, bits)).simplify();
      ASSERT_TRUE(want.is_numeral());
      EXPECT_EQ(got.e.id(), want.id())
          << wasm::op_info(op).name << " x=" << x;
      EXPECT_EQ(got.type, wasm::op_info(op).result);
    }
  }

  std::size_t binary_ops = 0;
  std::size_t trapping_pairs = 0;
  for (int raw = 0; raw < 256; ++raw) {
    if (!wasm::is_known_opcode(static_cast<std::uint8_t>(raw))) continue;
    const auto op = static_cast<Opcode>(raw);
    const auto& info = wasm::op_info(op);
    if (info.cls != wasm::OpClass::Binary ||
        (info.operand != ValType::I32 && info.operand != ValType::I64)) {
      continue;
    }
    ++binary_ops;
    Z3Env env;
    const ValType t = info.operand;
    const unsigned bits = t == ValType::I32 ? 32 : 64;
    for (const std::uint64_t x : edge_operands(bits)) {
      for (const std::uint64_t y : edge_operands(bits)) {
        // Trapping pairs (div/rem by zero, INT_MIN / -1) must take the
        // Z3 path, so they too must equal the simplified term.
        if (interpreter_traps(op, vm::Value{t, x}, vm::Value{t, y})) {
          ++trapping_pairs;
        }
        const SymValue got = sym_binary(env, op, SymValue{t, env.bv(x, bits)},
                                        SymValue{t, env.bv(y, bits)});
        const z3::expr want =
            z3_binary_term(env.ctx(), op, env.ctx().bv_val(x, bits),
                           env.ctx().bv_val(y, bits))
                .simplify();
        ASSERT_TRUE(want.is_numeral()) << info.name;
        EXPECT_EQ(got.e.id(), want.id())
            << info.name << " x=" << x << " y=" << y;
        EXPECT_EQ(got.type, info.result);
      }
    }
  }
  EXPECT_EQ(binary_ops, 50u);  // 10 relational + 15 arithmetic, x2 widths
  EXPECT_GT(trapping_pairs, 0u);
}

TEST(SymOps, TrappingConcreteOperandsKeepBitvectorSemantics) {
  Z3Env env;
  const auto i32 = [&](std::uint64_t v) {
    return SymValue{ValType::I32, env.bv(v, 32)};
  };
  const auto i64 = [&](std::uint64_t v) {
    return SymValue{ValType::I64, env.bv(v, 64)};
  };
  // SMT-LIB: x udiv 0 = all-ones, x urem 0 = x, INT_MIN sdiv -1 = INT_MIN.
  EXPECT_EQ(sym_binary(env, Opcode::I32DivU, i32(7), i32(0)).concrete(),
            0xffffffffull);
  EXPECT_EQ(sym_binary(env, Opcode::I64RemU, i64(7), i64(0)).concrete(), 7u);
  EXPECT_EQ(sym_binary(env, Opcode::I32DivS, i32(0x80000000u),
                       i32(0xffffffffu))
                .concrete(),
            0x80000000u);
  EXPECT_EQ(sym_binary(env, Opcode::I64DivS, i64(1ull << 63), i64(~0ull))
                .concrete(),
            1ull << 63);
  // A concrete float truncation of NaN has no bitvector term: it traps.
  const SymValue nan{ValType::F32, env.bv(0x7fc00000u, 32)};
  EXPECT_THROW(sym_unary(env, Opcode::I32TruncF32S, nan), util::Trap);
}

// ----------------------------------------------------------- Z3Env caches

TEST(Z3EnvCache, NumeralsAndSimplifyMatchUncachedCalls) {
  Z3Env env;
  for (const unsigned bits : {8u, 16u, 32u, 64u}) {
    const std::uint64_t mask = bits == 64 ? ~0ull : (1ull << bits) - 1;
    for (const std::uint64_t v : {0ull, 1ull, 0x7full, 0x1234ull, ~0ull}) {
      const z3::expr cached = env.bv(v & mask, bits);
      EXPECT_EQ(cached.id(), env.ctx().bv_val(v & mask, bits).id());
      EXPECT_EQ(env.bv(v & mask, bits).id(), cached.id());
    }
  }

  const z3::expr x = env.var("x", 32);
  const z3::expr terms[] = {
      (x + env.bv(0, 32)) * env.bv(1, 32),
      z3::ite(x == x, x, env.bv(0, 32)),
      z3::concat(x.extract(31, 16), x.extract(15, 0)),
      z3::sext(x, 32).extract(31, 0) ^ env.bv(0, 32),
  };
  for (const z3::expr& t : terms) {
    EXPECT_EQ(env.simplify(t).id(), t.simplify().id()) << t;
  }
  EXPECT_EQ(env.simplify_misses(), std::size(terms));
  EXPECT_EQ(env.simplify_hits(), 0u);
  for (const z3::expr& t : terms) {
    EXPECT_EQ(env.simplify(t).id(), t.simplify().id()) << t;
  }
  EXPECT_EQ(env.simplify_hits(), std::size(terms));
}

TEST(Z3EnvCache, MemoHitSurvivesFreedTemporaries) {
  Z3Env env;
  const z3::expr x = env.var("x", 64);
  const z3::expr kept = (x + env.bv(5, 64)) - env.bv(5, 64);
  const z3::expr kept_simplified = env.simplify(kept);
  for (std::uint64_t i = 0; i < 4000; ++i) {
    // Each term dies at the end of its iteration. A memo that did not pin
    // its keys would see the next term reuse the id and answer with this
    // term's result.
    const z3::expr t = (x ^ env.ctx().bv_val(i, 64)) +
                       env.ctx().bv_val(i * 7 + 1, 64);
    ASSERT_TRUE(z3::eq(env.simplify(t), t.simplify())) << t;
    const z3::expr garbage = (x * env.ctx().bv_val(i + 3, 64)).simplify();
    ASSERT_FALSE(garbage.is_numeral());
  }
  const std::uint64_t hits = env.simplify_hits();
  EXPECT_TRUE(z3::eq(env.simplify(kept), kept_simplified));
  EXPECT_TRUE(z3::eq(kept_simplified, kept.simplify()));
  EXPECT_EQ(env.simplify_hits(), hits + 1);
}

// --------------------------------------------------- replay determinism

TEST(Replay, ObfuscatedTraceReplaysToIdenticalTerms) {
  util::Rng rng(12);
  corpus::TemplateOptions opts;
  opts.verification_depth = 2;
  const corpus::Sample sample = corpus::make_fake_eos_sample(rng, true, opts);
  const wasm::Module original = corpus::obfuscate(wasm::decode(sample.wasm));
  const Instrumented inst = instrument::instrument(original);
  instrument::TraceSink sink;
  chain::Controller chain;
  chain.set_observer(&sink);
  chain.deploy_contract(name("victim"), wasm::encode(inst.module), sample.abi);
  chain.create_account(name("attacker"));

  const abi::ActionDef def = abi::transfer_action_def();
  const std::vector<ParamValue> params = default_seed(5);
  chain::Action act;
  act.account = name("victim");
  act.name = name("transfer");
  act.authorization = {chain::active(name("attacker"))};
  act.data = abi::pack(def, params);
  chain.push_transaction(chain::Transaction{{act}});
  const auto traces = sink.actions_of(name("victim"));
  ASSERT_FALSE(traces.empty());
  const instrument::ActionTrace& trace = *traces.front();
  const auto site = locate_action_call(trace, inst.sites, original,
                                       def.params.size() + 1);
  ASSERT_TRUE(site.has_value());

  Z3Env env;
  const ReplayResult first =
      replay(env, original, inst.sites, trace, *site, def, params);
  const std::uint64_t hits_after_first = env.simplify_hits();
  const ReplayResult second =
      replay(env, original, inst.sites, trace, *site, def, params);
  Z3Env fresh;
  const ReplayResult other =
      replay(fresh, original, inst.sites, trace, *site, def, params);
  EXPECT_GT(env.simplify_hits(), hits_after_first);

  ASSERT_FALSE(first.path.empty());
  ASSERT_EQ(second.path.size(), first.path.size());
  ASSERT_EQ(other.path.size(), first.path.size());
  const auto same_term = [](const std::optional<z3::expr>& a,
                            const std::optional<z3::expr>& b, bool by_id) {
    if (a.has_value() != b.has_value()) return false;
    if (!a.has_value()) return true;
    return by_id ? a->id() == b->id() : a->to_string() == b->to_string();
  };
  for (std::size_t i = 0; i < first.path.size(); ++i) {
    const PathStep& p = first.path[i];
    for (const PathStep* q : {&second.path[i], &other.path[i]}) {
      EXPECT_EQ(q->site, p.site) << i;
      EXPECT_EQ(q->taken, p.taken) << i;
      EXPECT_EQ(q->can_flip, p.can_flip) << i;
    }
    EXPECT_TRUE(same_term(p.hold, second.path[i].hold, true)) << i;
    EXPECT_TRUE(same_term(p.flip, second.path[i].flip, true)) << i;
    EXPECT_TRUE(same_term(p.hold, other.path[i].hold, false)) << i;
    EXPECT_TRUE(same_term(p.flip, other.path[i].flip, false)) << i;
  }
}

}  // namespace
}  // namespace wasai::symbolic
