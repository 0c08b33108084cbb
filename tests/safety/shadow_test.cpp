#include "safety/shadow.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mantle::safety {
namespace {

using obs::EventKind;
using obs::TraceEvent;

// The seeded bad policies compute a real load (metaload over the inode
// read/write counters): a policy whose loads are all zero never reaches
// when(), because the mechanism only consults it once the cluster's
// total load clears mds_bal_min_load.

core::MantlePolicy ping_pong_policy() {
  core::MantlePolicy p;
  p.metaload = "IRD + IWR";
  p.mdsload = "MDSs[i][\"all\"]";
  p.when = "return true";
  p.where =
      "for j = 1, #MDSs do targets[j] = 0 end\n"
      "local peer = whoami == 1 and 2 or 1\n"
      "targets[peer] = MDSs[whoami][\"all\"] + 10\n";
  p.howmuch = "{\"big_first\"}";
  return p;
}

core::MantlePolicy thrash_policy() {
  core::MantlePolicy p;
  p.metaload = "IRD + IWR";
  p.mdsload = "MDSs[i][\"all\"]";
  p.when = "return true";  // go every tick...
  p.where = "for j = 1, #MDSs do targets[j] = 0 end";  // ...ship nothing
  p.howmuch = "{\"big_first\"}";
  return p;
}

TEST(ShadowTest, PaperPoliciesAccepted) {
  for (const char* name :
       {"original", "greedy", "greedy_even", "fill_spill", "adaptable"}) {
    core::MantlePolicy p;
    ASSERT_EQ(load_policy(name, p), "") << name;
    const ShadowVerdict v = shadow_evaluate(p);
    EXPECT_TRUE(v.accepted) << name << ": " << v.reason;
    ASSERT_EQ(v.runs.size(), 3u) << name;
    EXPECT_EQ(v.runs[0].scenario, "create-heavy");
    EXPECT_EQ(v.runs[1].scenario, "compile");
    EXPECT_EQ(v.runs[2].scenario, "fault-recovery");
    EXPECT_GT(v.hook_calls, 0u) << name;
  }
}

TEST(ShadowTest, PingPongPolicyRejected) {
  const ShadowVerdict v = shadow_evaluate(ping_pong_policy());
  EXPECT_FALSE(v.accepted);
  EXPECT_NE(v.reason.find("ping-pong"), std::string::npos) << v.reason;
  std::uint64_t trips = 0;
  for (const ShadowRun& run : v.runs) trips += run.report.count("ping-pong");
  EXPECT_GE(trips, 1u);
}

TEST(ShadowTest, ThrashPolicyRejected) {
  const ShadowVerdict v = shadow_evaluate(thrash_policy());
  EXPECT_FALSE(v.accepted);
  EXPECT_NE(v.reason.find("thrash"), std::string::npos) << v.reason;
}

TEST(ShadowTest, InputDependentLoopRejectedOnBudget) {
  // Loops unconditionally once the cluster carries load — the budget
  // backstop must convert that into a rejection rather than a hang.
  core::MantlePolicy p;
  p.metaload = "IRD + IWR";
  p.mdsload = "MDSs[i][\"all\"]";
  p.when = "while total > -1 do end\nreturn false";
  ShadowConfig cfg;
  cfg.budget = 1 << 12;  // keep the test fast
  const ShadowVerdict v = shadow_evaluate(p, cfg);
  EXPECT_FALSE(v.accepted);
  EXPECT_NE(v.reason.find("budget"), std::string::npos) << v.reason;
  EXPECT_GT(v.budget_exhaustions, 0u);
}

TEST(ShadowTest, BrokenMetaloadRejectedOnHookErrors) {
  // Listing 1 with a metaload hook that fails on every call: the real
  // mechanism evaluates metaload like every other hook, so the errors
  // count against the candidate.
  core::MantlePolicy p;
  ASSERT_EQ(load_policy("greedy", p), "");
  p.metaload = "nil + 1";
  const ShadowVerdict v = shadow_evaluate(p);
  EXPECT_FALSE(v.accepted);
  EXPECT_NE(v.reason.find("hook error rate"), std::string::npos) << v.reason;
  EXPECT_GT(v.hook_errors * 20, v.hook_calls);
  EXPECT_EQ(v.budget_exhaustions, 0u);  // failing is not looping
}

TEST(ShadowTest, ZeroLoadPingPongAccepted) {
  // Without a metaload hook every load is zero, so the when hook is never
  // consulted and nothing migrates: the policy is inert, not harmful.
  core::MantlePolicy p = ping_pong_policy();
  p.metaload.clear();
  const ShadowVerdict v = shadow_evaluate(p);
  EXPECT_TRUE(v.accepted) << v.reason;
  EXPECT_EQ(v.exports, 0u);
}

TEST(ShadowTest, VerdictJsonDeterministic) {
  const ShadowVerdict a = shadow_evaluate(ping_pong_policy());
  const ShadowVerdict b = shadow_evaluate(ping_pong_policy());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_json().rfind("{\"accepted\":", 0), 0u);
}

TEST(ShadowTest, GateComposesValidationAndReplay) {
  core::MantlePolicy good;
  ASSERT_EQ(load_policy("greedy", good), "");
  EXPECT_EQ(gate_injection(good), "");

  // Unconditional infinite loop: caught by stage 1 (validate_policy),
  // never reaches the scenario runs.
  core::MantlePolicy loop;
  loop.when = "while 1 do end";
  const std::string err = gate_injection(loop);
  EXPECT_NE(err.find("validation failed"), std::string::npos) << err;

  // Well-formed but harmful: passes validation, rejected by the runs.
  const std::string harm = gate_injection(ping_pong_policy());
  EXPECT_NE(harm.find("shadow evaluation rejected"), std::string::npos)
      << harm;
}

TEST(ShadowTest, MetricsAndVerdictEventEmitted) {
  obs::MetricsRegistry metrics;
  obs::TraceSink verdicts;

  core::MantlePolicy good;
  ASSERT_EQ(load_policy("original", good), "");
  shadow_evaluate(good, {}, &metrics, &verdicts);
  shadow_evaluate(ping_pong_policy(), {}, &metrics, &verdicts);

  EXPECT_EQ(metrics.counter("mantle_shadow_evaluations_total").value(), 2u);
  EXPECT_EQ(metrics.counter("mantle_shadow_rejections_total").value(), 1u);

  const std::vector<TraceEvent> evs = verdicts.snapshot();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, EventKind::ShadowVerdict);
  EXPECT_EQ(evs[0].detail, "accepted");
  EXPECT_EQ(evs[1].detail, "rejected");
}

TEST(ShadowTest, LoadPolicyParsesSectionFiles) {
  const std::string path = testing::TempDir() + "/shadow_test.policy";
  {
    std::ofstream out(path);
    out << "-- comment before the first section is fine\n"
        << "[metaload]\nIRD + IWR\n"
        << "[when]\nreturn true\n"
        << "[where]\ntargets[1] = 0\n";
  }
  core::MantlePolicy p;
  ASSERT_EQ(load_policy(path, p), "");
  EXPECT_EQ(p.metaload, "IRD + IWR\n");
  EXPECT_EQ(p.when, "return true\n");
  EXPECT_EQ(p.where, "targets[1] = 0\n");
  EXPECT_TRUE(p.mdsload.empty());

  {
    std::ofstream out(path);
    out << "[bogus]\nx\n";
  }
  EXPECT_NE(load_policy(path, p).find("unknown policy section"),
            std::string::npos);

  {
    std::ofstream out(path);
    out << "just some text, no section\n";
  }
  EXPECT_NE(load_policy(path, p).find("must start with a [hook] section"),
            std::string::npos);

  EXPECT_NE(load_policy("/nonexistent/policy/file", p)
                .find("cannot open policy file"),
            std::string::npos);
}

}  // namespace
}  // namespace mantle::safety
