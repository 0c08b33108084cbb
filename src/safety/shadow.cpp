#include "safety/shadow.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "chaos/chaos.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"

namespace mantle::safety {

using core::MantlePolicy;

namespace {

/// Every scenario runs at this seed: the verdict is a pure function of
/// (policy, config).
constexpr std::uint64_t kSeed = 1;
/// Reject when hook errors exceed this fraction of hook calls. Non-zero
/// tolerance: a policy guarding MDSs[whoami+1] on the last rank may take
/// a few counted sanitizations without being dangerous.
constexpr double kMaxHookErrorRate = 0.05;
/// Post-run drain: run on in these steps until no export is in flight,
/// so an export still mid-2PC when the clients finish is not reported as
/// stuck.
constexpr Time kDrainStep = 2 * kSec;
constexpr int kDrainRounds = 6;

constexpr const char* kHooks[] = {"metaload", "mdsload", "when", "where",
                                  "howmuch"};

std::string u64(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, x);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::uint64_t counter(const std::map<std::string, double>& counters,
                      const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : static_cast<std::uint64_t>(it->second);
}

}  // namespace

ShadowVerdict shadow_evaluate(const MantlePolicy& policy,
                              const ShadowConfig& cfg,
                              obs::MetricsRegistry* metrics,
                              obs::TraceSink* verdict_trace) {
  ShadowVerdict v;
  // A candidate's failing hooks are counted in the verdict; they should
  // not also spam the log once per call.
  struct LogSilencer {
    LogLevel prev = Log::level();
    LogSilencer() { Log::set_level(LogLevel::Error); }
    ~LogSilencer() { Log::set_level(prev); }
  } silence;
  core::MantleBalancer::Options opt;
  opt.budget = cfg.budget;
  Time t_last = 0;

  for (const chaos::ScenarioKind kind :
       {chaos::ScenarioKind::CreateHeavy, chaos::ScenarioKind::Compile,
        chaos::ScenarioKind::FaultRecovery}) {
    const std::unique_ptr<sim::Scenario> s = chaos::build_scenario(
        kind, kSeed, [&](int) {
          return std::make_unique<core::MantleBalancer>(policy, opt);
        });
    s->run();
    for (int round = 0;
         round < kDrainRounds && s->cluster().active_migration_count() > 0;
         ++round)
      s->run_extra(kDrainStep);
    t_last = s->sim_now();

    const std::map<std::string, double> counters =
        obs::parse_metrics_counters(s->cluster().metrics().to_json());
    for (const char* hook : kHooks) {
      const std::string base = std::string("mantle_") + hook;
      v.hook_calls += counter(counters, base + "_calls_total");
      v.hook_errors += counter(counters, base + "_errors_total");
    }
    v.budget_exhaustions +=
        counter(counters, "mantle_hook_budget_exhaustions_total");

    ShadowRun run;
    run.scenario = chaos::scenario_name(kind);
    run.report = obs::analyze(s->cluster().trace(), cfg.analyze, &counters);
    v.exports += run.report.exports_started;
    v.runs.push_back(std::move(run));
  }

  // --- verdict ---
  std::string tripped;
  for (const ShadowRun& run : v.runs) {
    std::set<std::string> which;
    for (const obs::Anomaly& a : run.report.anomalies) which.insert(a.detector);
    if (which.empty()) continue;
    tripped += (tripped.empty() ? "" : "; ") + run.scenario + ":";
    for (const std::string& d : which) tripped += " " + d;
  }
  if (v.budget_exhaustions > 0) {
    v.reason = "hook instruction budget exhausted " +
               u64(v.budget_exhaustions) + " time(s)";
  } else if (!tripped.empty()) {
    v.reason = "anomaly detector(s) tripped: " + tripped;
  } else if (static_cast<double>(v.hook_errors) >
             kMaxHookErrorRate * static_cast<double>(v.hook_calls)) {
    v.reason = "hook error rate " + u64(v.hook_errors) + "/" +
               u64(v.hook_calls) + " exceeds the acceptance threshold";
  }
  v.accepted = v.reason.empty();

  if (metrics != nullptr) {
    metrics
        ->counter("mantle_shadow_evaluations_total",
                  "candidate policies shadow-evaluated")
        .inc();
    if (!v.accepted)
      metrics
          ->counter("mantle_shadow_rejections_total",
                    "candidate policies rejected by shadow evaluation")
          .inc();
  }
  if (verdict_trace != nullptr) {
    double trips = 0.0;
    for (const ShadowRun& run : v.runs) trips += run.report.tripped();
    verdict_trace->event(
        t_last, obs::EventKind::ShadowVerdict, -1, -1,
        v.accepted ? "accepted" : "rejected",
        {{"accepted", v.accepted ? 1.0 : 0.0},
         {"exports", static_cast<double>(v.exports)},
         {"hook_errors", static_cast<double>(v.hook_errors)},
         {"budget_exhaustions", static_cast<double>(v.budget_exhaustions)},
         {"tripped", trips}});
  }
  return v;
}

std::string gate_injection(const MantlePolicy& policy, const ShadowConfig& cfg,
                           obs::MetricsRegistry* metrics,
                           obs::TraceSink* verdict_trace) {
  // Stage 1: syntax + budgeted dry run against the synthetic view.
  const std::string err = core::validate_policy(policy, cfg.budget);
  if (!err.empty()) return "validation failed: " + err;
  // Stage 2: run it through the scenarios.
  const ShadowVerdict v = shadow_evaluate(policy, cfg, metrics, verdict_trace);
  if (!v.accepted) return "shadow evaluation rejected the policy: " + v.reason;
  return "";
}

std::string ShadowVerdict::to_json() const {
  std::string out = "{\"accepted\":";
  out += accepted ? "true" : "false";
  out += ",\"reason\":" + json_str(reason);
  out += ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"report\":" + runs[i].report.to_json() +
           ",\"scenario\":" + json_str(runs[i].scenario) + "}";
  }
  out += "],\"summary\":{";
  out += "\"budget_exhaustions\":" + u64(budget_exhaustions);
  out += ",\"exports\":" + u64(exports);
  out += ",\"hook_calls\":" + u64(hook_calls);
  out += ",\"hook_errors\":" + u64(hook_errors);
  out += "}}";
  return out;
}

std::string ShadowVerdict::to_table() const {
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof(buf), "  verdict       %s\n",
                accepted ? "ACCEPTED" : "REJECTED");
  out += buf;
  if (!reason.empty()) out += "  reason        " + reason + "\n";
  std::snprintf(buf, sizeof(buf),
                "  runs          %zu scenario(s), %" PRIu64
                " export(s) started\n",
                runs.size(), exports);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  hooks         %" PRIu64 " call(s), %" PRIu64
                " error(s), %" PRIu64 " budget exhaustion(s)\n",
                hook_calls, hook_errors, budget_exhaustions);
  out += buf;
  for (const ShadowRun& run : runs)
    out += "  -- " + run.scenario + " --\n" + run.report.to_table();
  return out;
}

std::string load_policy(const std::string& name_or_path, MantlePolicy& out) {
  if (name_or_path == "original") {
    out = core::scripts::original();
    return "";
  }
  if (name_or_path == "greedy" || name_or_path == "greedy_spill") {
    out = core::scripts::greedy_spill();
    return "";
  }
  if (name_or_path == "greedy_even" || name_or_path == "greedy_spill_even") {
    out = core::scripts::greedy_spill_even();
    return "";
  }
  if (name_or_path == "fill_spill" || name_or_path == "fill_and_spill") {
    out = core::scripts::fill_and_spill();
    return "";
  }
  if (name_or_path == "adaptable") {
    out = core::scripts::adaptable();
    return "";
  }

  std::ifstream in(name_or_path, std::ios::binary);
  if (!in) return "cannot open policy file: " + name_or_path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  MantlePolicy p;
  std::string* cur = nullptr;
  std::size_t line_start = 0;
  bool saw_section = false;
  while (line_start <= text.size()) {
    const std::size_t nl = text.find('\n', line_start);
    const std::string line =
        text.substr(line_start, nl == std::string::npos
                                    ? std::string::npos
                                    : nl - line_start);
    std::string trimmed = line;
    while (!trimmed.empty() &&
           (trimmed.back() == ' ' || trimmed.back() == '\t' ||
            trimmed.back() == '\r'))
      trimmed.pop_back();
    std::size_t b = 0;
    while (b < trimmed.size() && (trimmed[b] == ' ' || trimmed[b] == '\t'))
      ++b;
    trimmed = trimmed.substr(b);
    if (!trimmed.empty() && trimmed.front() == '[' && trimmed.back() == ']') {
      const std::string name = trimmed.substr(1, trimmed.size() - 2);
      if (name == "metaload") cur = &p.metaload;
      else if (name == "mdsload") cur = &p.mdsload;
      else if (name == "when") cur = &p.when;
      else if (name == "where") cur = &p.where;
      else if (name == "howmuch") cur = &p.howmuch;
      else return "unknown policy section [" + name + "] in " + name_or_path;
      saw_section = true;
    } else if (cur != nullptr) {
      // The empty pseudo-line after a final '\n' is not content.
      if (nl != std::string::npos || !line.empty()) {
        *cur += line;
        *cur += '\n';
      }
    } else if (!trimmed.empty() && trimmed.rfind("--", 0) != 0) {
      return "policy file must start with a [hook] section: " + name_or_path;
    }
    if (nl == std::string::npos) break;
    line_start = nl + 1;
  }
  if (!saw_section)
    return "no [metaload]/[mdsload]/[when]/[where]/[howmuch] sections in " +
           name_or_path;
  out = std::move(p);
  return "";
}

}  // namespace mantle::safety
