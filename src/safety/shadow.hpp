#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mantle.hpp"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"

/// \file shadow.hpp
/// Shadow evaluation: run a *candidate* policy in the simulator before
/// injecting it into a live cluster — the paper's "check the logic
/// before injecting policies" item. The budgeted interpreter
/// (validate_policy) rejects syntax errors and infinite loops; shadow
/// evaluation rejects policies that are *well-formed but harmful*: ones
/// that ping-pong subtrees, thrash (migrate every tick while shipping
/// nothing), or error/blow their budget on real inputs.
///
/// The candidate is judged by what it does, the way upstream validates a
/// balancer: a sandboxed MantleBalancer running it is installed on every
/// rank of each chaos scenario (create-heavy, compile, fault-recovery;
/// see chaos::build_scenario) at a fixed seed, the run is drained of
/// in-flight exports, and the obs/analyze detectors run over that run's
/// own trace. Every hook — metaload included — is evaluated by the real
/// mechanism, and hook calls, errors and budget exhaustions are read from
/// the run's mantle_<hook>_{calls,errors}_total and
/// mantle_hook_budget_exhaustions_total counters.

namespace mantle::obs {
class MetricsRegistry;
}  // namespace mantle::obs

namespace mantle::safety {

struct ShadowConfig {
  /// Interpreter budget per hook call in the sandbox (same default as a
  /// live MantleBalancer).
  std::uint64_t budget = 1 << 20;
  /// Detector thresholds applied to each run's trace.
  obs::AnalyzeConfig analyze;
};

/// One scenario run with the candidate installed.
struct ShadowRun {
  std::string scenario;  ///< chaos::scenario_name()
  obs::Report report;    ///< analysis of the run's trace (detectors included)
};

/// The outcome of one shadow evaluation.
struct ShadowVerdict {
  bool accepted = false;
  std::string reason;  ///< first rejection reason; empty when accepted

  std::uint64_t hook_calls = 0;         ///< candidate hook evaluations
  std::uint64_t hook_errors = 0;        ///< errors + counted sanitizations
  std::uint64_t budget_exhaustions = 0; ///< hook runs that hit the budget
  std::uint64_t exports = 0;            ///< migrations started

  std::vector<ShadowRun> runs;  ///< one per scenario, in scenario order

  /// Deterministic JSON (name-ordered keys), embedding each run's
  /// report.to_json().
  std::string to_json() const;
  /// Human-readable block for terminals.
  std::string to_table() const;
};

/// Run `policy` through the three chaos scenarios. It is rejected on any
/// budget exhaustion, any detector trip, or hook errors above 5% of hook
/// calls. `metrics` (optional) receives
/// mantle_shadow_{evaluations,rejections}_total; `verdict_trace`
/// (optional) gets one ShadowVerdict event stamped at the end of the last
/// run. Deterministic: same policy + same config => byte-identical
/// verdict JSON.
ShadowVerdict shadow_evaluate(const core::MantlePolicy& policy,
                              const ShadowConfig& cfg = {},
                              obs::MetricsRegistry* metrics = nullptr,
                              obs::TraceSink* verdict_trace = nullptr);

/// The injection gate: validate (syntax + budgeted dry run) and then
/// shadow-evaluate. Returns "" when the policy may be injected, or a
/// description of why it must not be.
std::string gate_injection(const core::MantlePolicy& policy,
                           const ShadowConfig& cfg = {},
                           obs::MetricsRegistry* metrics = nullptr,
                           obs::TraceSink* verdict_trace = nullptr);

/// Load a Mantle policy from a named builtin ("original", "greedy",
/// "greedy_even", "fill_spill", "adaptable") or from a policy file:
/// hook sections introduced by `[metaload]` / `[mdsload]` / `[when]` /
/// `[where]` / `[howmuch]` lines, everything between sections being the
/// hook source. Returns "" and fills `out` on success, else the error.
std::string load_policy(const std::string& name_or_path,
                        core::MantlePolicy& out);

}  // namespace mantle::safety
