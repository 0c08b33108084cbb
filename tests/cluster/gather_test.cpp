#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "balancers/builtin.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

/// Tests for the namespace-partitioning mechanism: export-candidate
/// gathering with drill-down ("subtrees are divided and migrated only if
/// their ancestors are too popular to migrate", §3.2), and the per-tick
/// walk memo checked against the un-memoized walks it replaces.

namespace mantle::cluster {
namespace {

using mantle::mds::frag_t;
using mantle::mds::InodeId;
using mantle::mds::MetaOp;

struct Harness {
  sim::Engine engine;
  MdsCluster cluster;
  balancers::AdaptableBalancer policy;  // metaload = IWR + IRD

  explicit Harness(int num_mds = 2) : cluster(engine, [&] {
    ClusterConfig cfg;
    cfg.num_mds = num_mds;
    return cfg;
  }()) {
    cluster.set_reply_handler([](const Reply&) {});
  }

  InodeId mkdir(InodeId parent, const std::string& name) {
    return cluster.ns().mkdir(parent, name, engine.now());
  }

  void heat(InodeId dir, const std::string& name, int hits) {
    const auto id = cluster.ns().frag_of(dir, name);
    for (int i = 0; i < hits; ++i)
      cluster.ns().record_op(id, MetaOp::IWR, engine.now());
  }
};

TEST(Gather, RootAloneWhenCold) {
  Harness h;
  const auto pool = h.cluster.gather_candidates(0, 100.0, h.policy, 0);
  // Nothing hot and nothing below the root: pool is empty or negligible.
  double total = 0.0;
  for (const auto& c : pool) total += c.load;
  EXPECT_DOUBLE_EQ(total, 0.0);
}

TEST(Gather, DrillsIntoHotRoot) {
  Harness h;
  const InodeId a = h.mkdir(h.cluster.ns().root(), "a");
  const InodeId b = h.mkdir(h.cluster.ns().root(), "b");
  h.cluster.ns().create(a, "fa", 0);
  h.cluster.ns().create(b, "fb", 0);
  h.heat(a, "fa", 60);
  h.heat(b, "fb", 40);

  // Target 50 out of ~100 total: the root (load ~100) is too big to ship
  // whole, so the pool must contain the child subtrees instead.
  const auto pool = h.cluster.gather_candidates(0, 50.0, h.policy, h.engine.now());
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0].frag.ino, a);  // sorted by descending load
  EXPECT_EQ(pool[1].frag.ino, b);
  EXPECT_NEAR(pool[0].load, 60.0, 1.0);
  EXPECT_NEAR(pool[1].load, 40.0, 1.0);
  EXPECT_EQ(pool[0].entries, 1u);
}

TEST(Gather, KeepsWholeSubtreeWhenItFitsTheTarget) {
  Harness h;
  const InodeId a = h.mkdir(h.cluster.ns().root(), "a");
  const InodeId deep = h.mkdir(a, "deep");
  h.cluster.ns().create(deep, "f", 0);
  h.heat(deep, "f", 30);
  const InodeId b = h.mkdir(h.cluster.ns().root(), "b");
  h.cluster.ns().create(b, "g", 0);
  h.heat(b, "g", 25);

  // Root load ~55 exceeds the target (35) and drills; both children fit
  // whole, so /a is offered as one candidate with its nested subtree —
  // no needless descent into /a/deep.
  const auto pool = h.cluster.gather_candidates(0, 35.0, h.policy, h.engine.now());
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0].frag.ino, a);
  EXPECT_NEAR(pool[0].load, 30.0, 1.0);
  EXPECT_EQ(pool[0].entries, 2u);  // "deep" + "f"
  EXPECT_EQ(pool[1].frag.ino, b);
}

TEST(Gather, HotFlatDirectoryIsExportableAsIs) {
  Harness h;
  const InodeId hot = h.mkdir(h.cluster.ns().root(), "hot");
  for (int i = 0; i < 20; ++i) {
    h.cluster.ns().create(hot, "f" + std::to_string(i), 0);
    h.heat(hot, "f" + std::to_string(i), 10);
  }
  // Target far below the flat directory's load: nothing to drill into
  // (no subdirectories), so the dirfrag itself stays in the pool.
  const auto pool = h.cluster.gather_candidates(0, 10.0, h.policy, h.engine.now());
  ASSERT_FALSE(pool.empty());
  EXPECT_EQ(pool[0].frag.ino, hot);
  EXPECT_NEAR(pool[0].load, 200.0, 2.0);
}

TEST(Gather, SkipsFrozenSubtrees) {
  Harness h;
  const InodeId a = h.mkdir(h.cluster.ns().root(), "a");
  const InodeId b = h.mkdir(h.cluster.ns().root(), "b");
  h.cluster.ns().create(a, "fa", 0);
  h.cluster.ns().create(b, "fb", 0);
  h.heat(a, "fa", 50);
  h.heat(b, "fb", 50);
  // Freeze /a by starting its migration.
  ASSERT_TRUE(h.cluster.export_subtree({a, frag_t()}, 1));
  const auto pool = h.cluster.gather_candidates(0, 40.0, h.policy, h.engine.now());
  for (const auto& c : pool) EXPECT_NE(c.frag.ino, a);
}

TEST(Gather, ExcludesForeignSubtrees) {
  Harness h;
  const InodeId a = h.mkdir(h.cluster.ns().root(), "a");
  const InodeId b = h.mkdir(h.cluster.ns().root(), "b");
  h.cluster.ns().create(a, "fa", 0);
  h.cluster.ns().create(b, "fb", 0);
  ASSERT_TRUE(h.cluster.export_subtree({b, frag_t()}, 1));
  h.engine.run();
  h.heat(a, "fa", 50);
  h.heat(b, "fb", 50);
  // Rank 0's candidates never include rank 1's subtree /b.
  const auto pool = h.cluster.gather_candidates(0, 40.0, h.policy, h.engine.now());
  for (const auto& c : pool) EXPECT_NE(c.frag.ino, b);
  // And rank 1's pool is exactly /b.
  const auto pool1 = h.cluster.gather_candidates(1, 40.0, h.policy, h.engine.now());
  ASSERT_FALSE(pool1.empty());
  EXPECT_EQ(pool1[0].frag.ino, b);
}

TEST(Gather, DrillDepthIsBounded) {
  Harness h;
  // A pathological 12-deep chain of hot directories.
  InodeId cur = h.cluster.ns().root();
  for (int i = 0; i < 12; ++i) cur = h.mkdir(cur, "lvl" + std::to_string(i));
  h.cluster.ns().create(cur, "leaf", 0);
  h.heat(cur, "leaf", 100);
  // Tiny target forces drilling at every level; the bound stops it.
  const auto pool = h.cluster.gather_candidates(0, 0.5, h.policy, h.engine.now());
  ASSERT_FALSE(pool.empty());  // bounded drill still yields candidates
}

// --- Walk memo: differential test against the un-memoized walks ---------

/// Seeded random namespace/migration history on a small cluster. After
/// every step each rank does what one balancer tick does — measure(),
/// then several gathers sharing one WalkMemo — and the results must equal
/// the un-memoized oracle bit for bit.
class MemoDifferential {
 public:
  static constexpr int kRanks = 4;

  explicit MemoDifferential(std::uint64_t seed)
      : cluster(engine, config(seed)), rng(seed) {
    cluster.set_reply_handler([](const Reply&) {});
    cluster.set_balancer_all(
        [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
    dirs.push_back({cluster.ns().root(), {}});
  }

  void step() {
    auto& ns = cluster.ns();
    const Time now = engine.now();
    // Half the file ops stay in the first few directories, so those grow
    // past split_size; phases alternate between growing (creates) and
    // shrinking (unlinks), so they also fall back below merge_size.
    const std::size_t di = pick(rng.uniform(0, 1) == 0
                                    ? std::min<std::size_t>(dirs.size(), 3)
                                    : dirs.size());
    const InodeId dino = dirs[di].ino;
    const bool shrinking = (steps_++ / 150) % 2 == 1;
    const std::uint64_t roll = rng.uniform(0, 99);
    if (roll < 40) {
      if (!shrinking) {
        const std::string name = "f" + std::to_string(next_name++);
        if (ns.create(dino, name, now) != mantle::mds::kNoInode)
          dirs[di].files.push_back(name);
      } else if (!dirs[di].files.empty()) {
        std::vector<std::string>& files = dirs[di].files;
        const std::size_t fi = pick(files.size());
        if (ns.remove(dino, files[fi]))
          files.erase(files.begin() + static_cast<std::ptrdiff_t>(fi));
      }
    } else if (roll < 45) {
      if (dirs.size() < 40) {
        const std::string name = "d" + std::to_string(next_name++);
        const InodeId ino = ns.mkdir(dino, name, now);
        if (ino != mantle::mds::kNoInode) dirs.push_back({ino, {}});
      }
    } else if (roll < 65) {
      const std::vector<std::string>& files = dirs[di].files;
      const std::string name =
          files.empty() ? std::string("x") : files[pick(files.size())];
      const auto op = static_cast<MetaOp>(rng.uniform(0, 4));
      const int hits = static_cast<int>(rng.uniform(1, 20));
      for (int i = 0; i < hits; ++i)
        ns.record_op(ns.frag_of(dino, name), op, now);
    } else if (roll < 72) {
      const InodeId ino = dirs[pick(dirs.size())].ino;
      const mantle::mds::Dir* dir = ns.dir(ino);
      auto it = dir->frags.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(pick(dir->frags.size())));
      cluster.export_subtree({ino, it->first},
                             static_cast<MdsRank>(pick(kRanks)));
    } else if (roll < 85) {
      engine.run_until(now + static_cast<Time>(rng.uniform(1, 2000)) * kMsec);
    } else if (roll < 88) {
      // Abort in-flight exports by crashing one end, then recover it.
      const auto active = cluster.active_migration_records();
      if (!active.empty()) {
        const MdsRank victim = active[pick(active.size())].to;
        cluster.crash_mds(victim);
        engine.run_until(engine.now() + kSec);
        cluster.restart_mds(victim);
        engine.run_until(engine.now() + kSec);
      }
    } else {
      engine.run_until(now + static_cast<Time>(rng.uniform(1, 100)) * kMsec);
    }
    // The fragmentation mechanism, as the request path drives it after a
    // create or an unlink.
    std::vector<DirFragId> frags;
    for (const auto& [f, df] : ns.dir(dino)->frags) frags.push_back({dino, f});
    for (const DirFragId& id : frags) cluster.maybe_split(id);
    cluster.maybe_merge(dino);
  }

  /// Exports and recoveries in flight at the end of the history settle.
  void settle() { engine.run_until(engine.now() + 60 * kSec); }

  /// One tick's worth of walks per rank, checked against the oracle.
  /// `oracle_first` picks which path reads the decay counters first at
  /// this `now`; the first read applies the lazy decay, and both orders
  /// must agree.
  void check(bool oracle_first) {
    const Time now = engine.now();
    balancers::OriginalBalancer policy;
    for (MdsRank r = 0; r < kRanks; ++r) {
      SCOPED_TRACE("rank " + std::to_string(r) + " at t=" +
                   std::to_string(now));
      WalkMemo memo;
      const HeartbeatPayload hb = cluster.node(r).measure(&memo);

      // measure() == auth_entry_count + per-root subtree_pop.
      double load = 0.0;
      for (const DirFragId& root : cluster.roots_of(r))
        load += policy.metaload(cluster.subtree_pop(root, r, now));
      EXPECT_EQ(hb.auth_metaload, load);
      const std::size_t entries = cluster.auth_entry_count(r);
      EXPECT_EQ(hb.mem_pct, std::clamp(100.0 * static_cast<double>(entries) /
                                           kMemCapacity,
                                       0.0, 100.0));
      std::size_t memo_entries = 0;
      for (const DirFragId& root : cluster.roots_of(r))
        memo_entries += cluster.subtree_stats(root, r, now, &memo).entries;
      EXPECT_EQ(memo_entries, entries);

      // gather_candidates: one shared memo across targets == no memo.
      const double targets[] = {0.01, 0.25 * load, 0.6 * load, 5.0, 1e9};
      for (const double target : targets) {
        std::vector<ExportCandidate> oracle;
        if (oracle_first)
          oracle = cluster.gather_candidates(r, target, policy, now, nullptr);
        const std::vector<ExportCandidate> memoized =
            cluster.gather_candidates(r, target, policy, now, &memo);
        if (!oracle_first)
          oracle = cluster.gather_candidates(r, target, policy, now, nullptr);
        ASSERT_EQ(memoized.size(), oracle.size()) << "target " << target;
        for (std::size_t i = 0; i < oracle.size(); ++i) {
          EXPECT_EQ(memoized[i].frag, oracle[i].frag) << "target " << target;
          EXPECT_EQ(memoized[i].load, oracle[i].load) << "target " << target;
          EXPECT_EQ(memoized[i].entries, oracle[i].entries)
              << "target " << target;
        }
      }

      // Every walk the tick needs is in the memo now: replaying the same
      // gathers visits no frag.
      const std::uint64_t visited = frags_visited();
      for (const double target : targets)
        cluster.gather_candidates(r, target, policy, now, &memo);
      EXPECT_EQ(frags_visited(), visited);
    }
  }

  std::uint64_t frags_visited() {
    return cluster.metrics().counter("mantle_subtree_frags_visited_total")
        .value();
  }

  std::size_t splits() {
    return cluster.metrics().counter("dirfrag_splits_total").value();
  }
  std::size_t merges() {
    return cluster.metrics().counter("dirfrag_merges_total").value();
  }

  sim::Engine engine;
  MdsCluster cluster;

 private:
  static constexpr double kMemCapacity = 5000.0;

  struct Dir {
    InodeId ino;
    std::vector<std::string> files;
  };

  static ClusterConfig config(std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.num_mds = kRanks;
    cfg.seed = seed;
    cfg.split_size = 12;
    cfg.split_bits = 2;
    cfg.merge_size = 10;
    cfg.cpu_noise_pct = 0.0;
    cfg.mem_capacity_entries = kMemCapacity;
    return cfg;
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng.uniform(0, n - 1));
  }

  Rng rng;
  int steps_ = 0;
  std::vector<Dir> dirs;
  int next_name = 0;
};

TEST(WalkMemo, GatherAndMeasureMatchUnmemoizedWalks) {
  std::size_t splits = 0;
  std::size_t merges = 0;
  std::size_t commits = 0;
  std::size_t aborts = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MemoDifferential t(seed);
    for (int i = 0; i < 900; ++i) {
      t.step();
      t.check(i % 2 == 0);
      if (HasFatalFailure()) return;
    }
    t.settle();
    t.check(true);
    splits += t.splits();
    merges += t.merges();
    commits += t.cluster.migrations().size();
    aborts += t.cluster.aborted_migrations().size();
  }
  // The histories must have exercised every mechanism the memo has to
  // stay correct across.
  EXPECT_GT(splits, 0u);
  EXPECT_GT(merges, 0u);
  EXPECT_GT(commits, 0u);
  EXPECT_GT(aborts, 0u);
}

// --- Walk memo: deterministic work counter -------------------------------

/// Ships a fixed goal to every other rank on every tick, so the number of
/// export targets is the only thing that differs between cluster sizes.
class FixedGoalBalancer : public Balancer {
 public:
  std::string name() const override { return "fixed-goal"; }
  double metaload(const PopSnapshot& pop) const override {
    return pop.ird + pop.iwr;
  }
  double mdsload(const HeartbeatPayload& hb) const override {
    return hb.all_metaload;
  }
  bool when(const ClusterView&) override { return true; }
  std::vector<double> where(const ClusterView& view) override {
    std::vector<double> out(view.size(), 12.0);
    out[static_cast<std::size_t>(view.whoami)] = 0.0;
    return out;
  }
  std::vector<std::string> howmuch() const override { return {"big_first"}; }
};

/// Frags rank 0 visits in one tick over a fixed 3-level namespace it owns
/// entirely, in a cluster of `num_mds` ranks (num_mds - 1 targets).
std::uint64_t frags_visited_in_one_tick(int num_mds) {
  sim::Engine engine;
  ClusterConfig cfg;
  cfg.num_mds = num_mds;
  MdsCluster cluster(engine, cfg);
  cluster.set_reply_handler([](const Reply&) {});
  cluster.set_balancer(0, std::make_unique<FixedGoalBalancer>());
  auto& ns = cluster.ns();
  for (int a = 0; a < 6; ++a) {
    const InodeId da = ns.mkdir(ns.root(), "a" + std::to_string(a), 0);
    for (int b = 0; b < 4; ++b) {
      const InodeId db = ns.mkdir(da, "b" + std::to_string(b), 0);
      for (int f = 0; f < 5; ++f) {
        const std::string name = "f" + std::to_string(f);
        ns.create(db, name, 0);
        for (int i = 0; i < a + b + f; ++i)
          ns.record_op(ns.frag_of(db, name), MetaOp::IWR, 0);
      }
    }
  }
  engine.run_until(kSec);
  auto& counter =
      cluster.metrics().counter("mantle_subtree_frags_visited_total");
  const std::uint64_t before = counter.value();
  cluster.node(0).tick();
  EXPECT_GT(cluster.metrics().counter("migrations_started_total").value(), 0u)
      << num_mds << " ranks: the tick must have exported something";
  return counter.value() - before;
}

TEST(WalkMemo, FragsVisitedPerTickDoNotDependOnTargetCount) {
  const std::uint64_t one = frags_visited_in_one_tick(2);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(frags_visited_in_one_tick(4), one);    // 3 targets
  EXPECT_EQ(frags_visited_in_one_tick(64), one);   // 63 targets
}

std::uint64_t frags_visited_sharded(int threads) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 8;
  cfg.cluster.seed = 5;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  cfg.cluster.shards = 4;
  cfg.threads = threads;
  cfg.max_time = 2 * kMinute;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  for (int c = 0; c < 4; ++c)
    s.add_client(workloads::make_shared_create_workload(c, "/shared", 4000, 200));
  s.run();
  return s.cluster().metrics().counter("mantle_subtree_frags_visited_total")
      .value();
}

TEST(WalkMemo, FragsVisitedIsThreadCountInvariant) {
  const std::uint64_t serial = frags_visited_sharded(1);
  EXPECT_GT(serial, 0u);
  EXPECT_EQ(frags_visited_sharded(4), serial);
}

}  // namespace
}  // namespace mantle::cluster
