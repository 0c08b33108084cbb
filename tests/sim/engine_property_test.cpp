#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"

/// Property test for the ladder-queue engine: against a reference binary
/// heap, the dispatch order over thousands of random schedules — with
/// nested rescheduling and random run_until slices — must be identical,
/// element for element. This is the exact-(when, seq)-order guarantee the
/// Figure 4 reproduction rests on: determinism comes from the queue, so
/// the queue must be a drop-in total order.

namespace mantle::sim {
namespace {

/// Reference model: the old engine's (when, seq) min-heap.
class RefQueue {
 public:
  void push(Time when, std::uint64_t id) { q_.emplace(when, seq_++, id); }
  bool empty() const { return q_.empty(); }
  Time top_when() const { return std::get<0>(q_.top()); }
  std::uint64_t pop() {
    const auto [when, seq, id] = q_.top();
    q_.pop();
    (void)when;
    (void)seq;
    return id;
  }

 private:
  using Key = std::tuple<Time, std::uint64_t, std::uint64_t>;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> q_;
  std::uint64_t seq_ = 0;
};

/// Nested rescheduling, identical in both models: each dispatched event
/// spawns 0-2 children from a dedicated RNG stream, ids assigned in the
/// model's own dispatch order, until a fixed budget of children is
/// spent. The stream and the ids agree between the models if and only if
/// their dispatch orders do. (The fan-out has mean 1, a critical
/// branching process, so without the budget one run dispatches ~10^8
/// events.)
class Spawner {
 public:
  static constexpr std::uint64_t kChildBudget = 200'000;

  explicit Spawner(std::uint64_t first_id) : next_id_(first_id) {}

  const std::vector<std::pair<Time, std::uint64_t>>& children(Time now) {
    out_.clear();
    const std::uint64_t n = rng_.uniform(0, 2);
    for (std::uint64_t i = 0; i < n && spawned_ < kChildBudget; ++i) {
      Time d = 0;
      switch (rng_.uniform(0, 2)) {
        case 0: d = rng_.uniform(0, 100); break;
        case 1: d = rng_.uniform(0, 10'000); break;
        default: d = rng_.uniform(0, 10'000'000); break;
      }
      ++spawned_;
      out_.emplace_back(now + d, next_id_++);
    }
    return out_;
  }

  std::uint64_t spawned() const { return spawned_; }

 private:
  Rng rng_{0xfa11};
  std::uint64_t next_id_;
  std::uint64_t spawned_ = 0;
  std::vector<std::pair<Time, std::uint64_t>> out_;
};

TEST(EngineProperty, MatchesReferenceHeapOrder) {
  constexpr std::uint64_t kSeeded = 10'000;
  Rng rng(0xdecade);
  Engine e;
  RefQueue ref;
  std::vector<std::uint64_t> engine_order;
  std::vector<std::uint64_t> ref_order;

  // Mixed horizon profile: short hops, bucket-width jumps and far-future
  // leaps, so events land in the bottom tier, every rung depth and the
  // top tier.
  const auto random_delay = [&]() -> Time {
    switch (rng.uniform(0, 3)) {
      case 0: return rng.uniform(0, 50);
      case 1: return rng.uniform(0, 5'000);
      case 2: return rng.uniform(0, 1'000'000);
      default: return rng.uniform(0, 500'000'000);
    }
  };

  Spawner engine_spawn(kSeeded);
  std::function<void(std::uint64_t)> on_fire = [&](std::uint64_t id) {
    engine_order.push_back(id);
    for (const auto& [when, cid] : engine_spawn.children(e.now()))
      e.schedule_at(when, [&on_fire, cid] { on_fire(cid); });
  };

  // Seed both models with 10k random schedules.
  for (std::uint64_t id = 0; id < kSeeded; ++id) {
    const Time when = random_delay();
    e.schedule_at(when, [&on_fire, id] { on_fire(id); });
    ref.push(when, id);
  }

  // Drain the engine in random run_until slices.
  Rng slice_rng(0x511ce);
  Time horizon = 0;
  while (!e.empty()) {
    horizon += slice_rng.uniform(1, 20'000'000);
    e.run_until(horizon);
  }

  // Drain the reference with its own spawner.
  Spawner ref_spawn(kSeeded);
  while (!ref.empty()) {
    const Time now = ref.top_when();
    const std::uint64_t id = ref.pop();
    ref_order.push_back(id);
    for (const auto& [when, cid] : ref_spawn.children(now)) ref.push(when, cid);
  }

  // The whole dispatch order, seeded events and children alike, id by id.
  EXPECT_EQ(engine_spawn.spawned(), Spawner::kChildBudget);
  EXPECT_EQ(ref_spawn.spawned(), Spawner::kChildBudget);
  ASSERT_EQ(engine_order.size(), kSeeded + Spawner::kChildBudget);
  ASSERT_EQ(ref_order.size(), engine_order.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < ref_order.size(); ++i)
    if (engine_order[i] != ref_order[i]) ++mismatches;
  EXPECT_EQ(mismatches, 0u);
}

/// Same-run bit-determinism: two engines fed the same schedule dispatch
/// identically, including through rung shattering and ladder restarts.
TEST(EngineProperty, TwoRunsIdentical) {
  const auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    Engine e;
    std::vector<std::pair<Time, int>> fired;
    for (int i = 0; i < 5'000; ++i) {
      const Time when = rng.uniform(0, 100'000'000);
      e.schedule_at(when, [&fired, i, &e] { fired.emplace_back(e.now(), i); });
    }
    e.run();
    return fired;
  };
  EXPECT_EQ(run(7), run(7));
}

}  // namespace
}  // namespace mantle::sim
