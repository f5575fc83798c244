// The EOSVM simulator (§3.4.3): replays a captured trace through the
// operational semantics of Table 3, building symbolic machine states and
// collecting the conditional states whose constraints the flipper negates.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "instrument/trace.hpp"
#include "obs/obs.hpp"
#include "symbolic/inputs.hpp"
#include "symbolic/memory_model.hpp"
#include "wasm/module.hpp"

namespace wasai::symbolic {

/// Raised when the trace and module disagree (corrupt trace, wrong site
/// table). The fuzzer skips symbolic feedback for that run.
class ReplayError : public util::Error {
 public:
  explicit ReplayError(const std::string& what)
      : util::Error("replay: " + what) {}
};

/// One conditional state (§3.1): a br_if/if branch or an eosio_assert.
struct PathStep {
  std::uint32_t site;
  bool is_assert = false;
  bool can_flip = false;     // condition depends on symbolic input
  bool taken = false;        // concrete direction (branches)
  std::optional<z3::expr> hold;  // constraint satisfied by this trace
  std::optional<z3::expr> flip;  // constraint for the unexplored side
};

/// One library-API invocation observed in the trace.
struct ApiCall {
  std::string name;
  std::uint32_t site = 0;
  std::vector<SymValue> args;
  std::optional<vm::Value> ret;  // captured by call_post
  bool completed = false;
};

/// Concrete operand pair of an executed i64.eq / i64.ne — inspected by the
/// Fake Notif guard oracle (§3.5).
struct ComparisonRecord {
  std::uint32_t site;
  std::uint64_t lhs;
  std::uint64_t rhs;
};

struct ReplayResult {
  std::vector<PathStep> path;
  std::vector<ApiCall> api_calls;
  std::vector<std::uint32_t> function_chain;  // defined functions, in order
  std::vector<ComparisonRecord> i64_comparisons;
  std::vector<InputBinding> bindings;
  bool trapped = false;
  bool completed_scope = false;  // the action function returned normally
  std::size_t events_replayed = 0;
};

/// Where the dispatcher hands control to the action function.
struct ActionCallSite {
  std::uint32_t func_index;   // action function, original index space
  std::size_t begin_event;    // index of its FunctionBegin in the trace
  std::vector<vm::Value> concrete_args;  // captured by call_pre hooks
};

/// §3.4.2's dispatcher analysis: find the first call_indirect (or direct
/// call to a defined function) made by apply() and resolve its target.
/// When `expected_params` is given (ABI parameter count + self), candidates
/// with a different signature — e.g. obfuscation helpers invoked from
/// apply — are skipped.
std::optional<ActionCallSite> locate_action_call(
    const instrument::ActionTrace& trace, const instrument::SiteTable& sites,
    const wasm::Module& module,
    std::optional<std::size_t> expected_params = std::nullopt);

/// Symbolic machine state exposed to a ReplayObserver, snapshotted BEFORE
/// the replayed instruction mutates it. Spans alias live machine state and
/// are only valid during the callback.
struct ReplayStepView {
  instrument::EventKind kind = instrument::EventKind::Instr;
  std::uint32_t site = 0;            // site id of the replayed event
  std::uint32_t func_index = 0;      // original function of the site
  std::uint32_t instr_index = 0;     // instruction index within its body
  std::span<const SymValue> stack;   // full symbolic stack (action-relative)
  std::size_t frame_stack_base = 0;  // current frame's stack base
  std::span<const SymValue> locals;  // current frame's Local section
  std::span<const SymValue> globals;
};

/// Observes the symbolic machine as the trace replays. The differential
/// oracle pairs these snapshots with the concrete ExecProbe stream; normal
/// fuzzing passes no observer.
class ReplayObserver {
 public:
  virtual ~ReplayObserver() = default;
  /// Fired for every Instr / CallDirect / CallIndirect event, i.e. exactly
  /// once per original instruction the action executed.
  virtual void on_event(const ReplayStepView& view) = 0;
  /// Fired once after the last event, with the final memory model and
  /// global state.
  virtual void on_finish(const MemoryModel& memory,
                         std::span<const SymValue> globals) = 0;
};

/// Replay `trace` starting at the action function identified by `site`.
/// `module` must be the ORIGINAL (uninstrumented) module. A non-null `obs`
/// wraps the replay in a `replay` phase span and counts replayed events and
/// the replay's simplify-memo hits and misses.
ReplayResult replay(Z3Env& env, const wasm::Module& module,
                    const instrument::SiteTable& sites,
                    const instrument::ActionTrace& trace,
                    const ActionCallSite& site, const abi::ActionDef& def,
                    const std::vector<abi::ParamValue>& seed_params,
                    ReplayObserver* observer = nullptr,
                    obs::Obs* obs = nullptr);

}  // namespace wasai::symbolic
