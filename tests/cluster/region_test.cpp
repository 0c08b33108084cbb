#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"

/// Tests for the two rules the namespace-partitioning mechanism decides
/// by: a rank's region is the frags reachable from a subtree root without
/// crossing a foreign bound, and an in-flight export freezes every frag
/// its exported frag contains.

namespace mantle::cluster {
namespace {

using mantle::mds::frag_t;
using mantle::mds::InodeId;
using mantle::mds::kNoRank;
using mantle::mds::MetaOp;

// --- Region rule on a hand-built namespace --------------------------------

/// / (0) ── a (0) ── x (0)
///           └─ b (1: the bound) ── y (1)
///                └─ c (`island`) ── z
///
/// Every directory holds one file "f"; the i-th directory in the order
/// above gets 2^i IWR hits on it, so a popularity sum names exactly the
/// frags a walk visited.
struct Layout {
  static constexpr int kRanks = 3;

  sim::Engine engine;
  MdsCluster cluster;
  InodeId root, a, x, b, y, c, z;

  explicit Layout(MdsRank island) : cluster(engine, [] {
    ClusterConfig cfg;
    cfg.num_mds = kRanks;
    return cfg;
  }()) {
    cluster.set_reply_handler([](const Reply&) {});
    auto& ns = cluster.ns();
    root = ns.root();
    a = ns.mkdir(root, "a", 0);
    x = ns.mkdir(a, "x", 0);
    b = ns.mkdir(a, "b", 0);
    y = ns.mkdir(b, "y", 0);
    c = ns.mkdir(b, "c", 0);
    z = ns.mkdir(c, "z", 0);
    for (const InodeId d : dirs()) ns.create(d, "f", 0);
    EXPECT_TRUE(cluster.export_subtree(frag(b), 1));
    engine.run();
    if (island != 1) {
      EXPECT_TRUE(cluster.export_subtree(frag(c), island));
      engine.run();
    }
    int hits = 1;
    for (const InodeId d : dirs()) {
      for (int i = 0; i < hits; ++i)
        ns.record_op(ns.frag_of(d, "f"), MetaOp::IWR, engine.now());
      hits *= 2;
    }
  }

  std::vector<InodeId> dirs() const { return {root, a, x, b, y, c, z}; }
  static DirFragId frag(InodeId d) { return {d, frag_t()}; }

  /// Authority of every directory, in dirs() order.
  std::vector<MdsRank> auths() {
    std::vector<MdsRank> out;
    for (const InodeId d : dirs())
      out.push_back(cluster.ns().frag(frag(d))->auth);
    return out;
  }

  bool stored(InodeId d) {
    std::string v;
    return cluster.object_store()
        .omap_get("dir." + frag(d).str(), "version", &v)
        .ok;
  }
};

TEST(RegionWalk, StopsAtForeignBounds) {
  {
    SCOPED_TRACE("read-only walks");
    Layout l(0);
    ASSERT_EQ(l.auths(), (std::vector<MdsRank>{0, 0, 0, 1, 1, 0, 0}));
    const Time now = l.engine.now();
    // Rank 0's root region is /, a and x: the bound b and the island c
    // behind it are not reachable without crossing rank 1's frag.
    EXPECT_EQ(l.cluster.subtree_entry_count(l.frag(l.root), 0), 6u);
    SubtreeStats st = l.cluster.subtree_stats(l.frag(l.root), 0, now);
    EXPECT_EQ(st.entries, 6u);
    EXPECT_NEAR(st.pop.iwr, 1 + 2 + 4, 1e-9);
    // The bound's own region stops at the island.
    EXPECT_EQ(l.cluster.subtree_entry_count(l.frag(l.b), 1), 4u);
    st = l.cluster.subtree_stats(l.frag(l.b), 1, now);
    EXPECT_EQ(st.entries, 4u);
    EXPECT_NEAR(st.pop.iwr, 8 + 16, 1e-9);
    // The island is walked from its own root entry.
    st = l.cluster.subtree_stats(l.frag(l.c), 0, now);
    EXPECT_EQ(st.entries, 3u);
    EXPECT_NEAR(st.pop.iwr, 32 + 64, 1e-9);
    // kNoRank counts everything.
    EXPECT_EQ(l.cluster.subtree_entry_count(l.frag(l.root), kNoRank), 13u);
    st = l.cluster.subtree_stats(l.frag(l.root), kNoRank, now);
    EXPECT_EQ(st.entries, 13u);
    EXPECT_NEAR(st.pop.iwr, 127, 1e-9);
    EXPECT_EQ(l.cluster.auth_entry_count(0), 9u);
    EXPECT_EQ(l.cluster.auth_entry_counts(),
              (std::vector<std::size_t>{9, 4, 0}));
  }
  {
    SCOPED_TRACE("flush_dirty");
    Layout l(0);
    auto dirty_all = [&l] {
      for (const InodeId d : l.dirs())
        l.cluster.ns().frag(l.frag(d))->dirty = true;
    };
    dirty_all();
    l.cluster.flush_dirty(1);
    for (const InodeId d : l.dirs()) {
      const bool mine = d == l.b || d == l.y;
      EXPECT_EQ(l.cluster.ns().frag(l.frag(d))->dirty, !mine) << d;
      EXPECT_EQ(l.stored(d), mine) << d;
    }
    // Rank 0 reaches its island through the island's root entry.
    dirty_all();
    l.cluster.flush_dirty(0);
    for (const InodeId d : l.dirs()) {
      const bool mine = d != l.b && d != l.y;
      EXPECT_EQ(l.cluster.ns().frag(l.frag(d))->dirty, !mine) << d;
    }
  }
  {
    SCOPED_TRACE("export commit");
    Layout l(0);
    ASSERT_TRUE(l.cluster.export_subtree(l.frag(l.a), 2));
    l.engine.run();
    EXPECT_EQ(l.auths(), (std::vector<MdsRank>{0, 2, 2, 1, 1, 0, 0}));
    const std::map<DirFragId, MdsRank> roots{{l.frag(l.root), 0},
                                             {l.frag(l.a), 2},
                                             {l.frag(l.b), 1},
                                             {l.frag(l.c), 0}};
    EXPECT_EQ(l.cluster.subtree_roots(), roots);
  }
  {
    SCOPED_TRACE("reparent_subtree");
    Layout l(0);
    l.cluster.reparent_subtree(l.a, 0, 2);
    EXPECT_EQ(l.auths(), (std::vector<MdsRank>{0, 2, 2, 1, 1, 0, 0}));
    const std::map<DirFragId, MdsRank> roots{
        {l.frag(l.root), 0}, {l.frag(l.b), 1}, {l.frag(l.c), 0}};
    EXPECT_EQ(l.cluster.subtree_roots(), roots);
  }
  {
    SCOPED_TRACE("takeover");
    // The island belongs to rank 2 here, so the survivor (rank 0) taking
    // over rank 1 would visibly claim it if the walk crossed the bound.
    Layout l(2);
    ASSERT_EQ(l.auths(), (std::vector<MdsRank>{0, 0, 0, 1, 1, 2, 2}));
    ASSERT_TRUE(l.cluster.crash_mds(1));
    l.engine.run();
    EXPECT_EQ(l.auths(), (std::vector<MdsRank>{0, 0, 0, 0, 0, 2, 2}));
    const std::map<DirFragId, MdsRank> roots{
        {l.frag(l.root), 0}, {l.frag(l.b), 0}, {l.frag(l.c), 2}};
    EXPECT_EQ(l.cluster.subtree_roots(), roots);
  }
}

// --- Freeze rule: differential test against frag_contains -----------------

/// Seeded histories of creates (which split the busiest directories),
/// nested mkdirs and bursts of exports that overlap in time. After every
/// step, is_frozen() and defer_to_migration() are checked on every
/// directory's frags against the rule they implement.
class FreezeHistory {
 public:
  static constexpr int kRanks = 4;

  explicit FreezeHistory(std::uint64_t seed)
      : cluster(engine, config(seed)), rng(seed) {
    cluster.set_reply_handler([](const Reply&) {});
    dirs.push_back(cluster.ns().root());
    depth.push_back(0);
  }

  void step() {
    auto& ns = cluster.ns();
    const Time now = engine.now();
    const std::uint64_t roll = rng.uniform(0, 99);
    if (roll < 35) {
      // Most files land in the first few directories, so those split.
      const InodeId d = dirs[pick(std::min<std::size_t>(dirs.size(), 3))];
      const std::string name = "f" + std::to_string(next_name++);
      if (ns.create(d, name, now) != mantle::mds::kNoInode)
        cluster.maybe_split(ns.frag_of(d, name));
    } else if (roll < 45) {
      if (dirs.size() < 50) {
        const std::size_t di = pick(dirs.size());
        const InodeId ino =
            ns.mkdir(dirs[di], "d" + std::to_string(next_name++), now);
        if (ino != mantle::mds::kNoInode) {
          dirs.push_back(ino);
          depth.push_back(depth[di] + 1);
        }
      }
    } else if (roll < 75) {
      const int burst = static_cast<int>(rng.uniform(1, 4));
      for (int i = 0; i < burst; ++i) {
        const InodeId d = dirs[pick(dirs.size())];
        const mantle::mds::Dir* dir = ns.dir(d);
        auto it = dir->frags.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(pick(dir->frags.size())));
        cluster.export_subtree({d, it->first},
                               static_cast<MdsRank>(pick(kRanks)));
      }
    } else {
      engine.run_until(now + static_cast<Time>(rng.uniform(1, 150)) * kMsec);
    }
    max_active = std::max(max_active, cluster.active_migration_count());
  }

  void check() {
    const std::vector<MigrationRecord> active =
        cluster.active_migration_records();
    std::vector<DirFragId> ids;
    for (const InodeId d : dirs) {
      for (const auto& [f, df] : cluster.ns().dir(d)->frags)
        ids.push_back({d, f});
      ids.push_back({d, frag_t()});  // stale once the directory has split
    }
    ids.push_back({987654321, frag_t()});  // no such inode
    for (const DirFragId& id : ids) {
      bool oracle = false;
      bool via_ancestry = false;
      for (const MigrationRecord& m : active) {
        if (!cluster.frag_contains(m.frag, id)) continue;
        oracle = true;
        via_ancestry = via_ancestry || m.frag.ino != id.ino;
      }
      ASSERT_EQ(cluster.is_frozen(id), oracle) << id.str();
      Request r;
      r.id = ++next_req;
      r.client = 3;
      r.dir = id.ino;
      r.name = "probe";
      r.span = 17;
      const bool deferred = cluster.defer_to_migration(id, r);
      ASSERT_EQ(deferred, oracle) << id.str();
      if (!deferred) {
        EXPECT_EQ(r.id, next_req);
        EXPECT_EQ(r.client, 3);
        EXPECT_EQ(r.dir, id.ino);
        EXPECT_EQ(r.name, "probe");
        EXPECT_EQ(r.span, 17u);
      }
      ++(oracle ? frozen_checks : thawed_checks);
      if (via_ancestry) ++ancestry_checks;
    }
  }

  std::size_t splits() {
    return cluster.metrics().counter("dirfrag_splits_total").value();
  }

  sim::Engine engine;
  MdsCluster cluster;
  std::size_t max_active = 0;
  std::size_t frozen_checks = 0;
  std::size_t thawed_checks = 0;
  std::size_t ancestry_checks = 0;
  std::vector<int> depth;

 private:
  static ClusterConfig config(std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.num_mds = kRanks;
    cfg.seed = seed;
    cfg.split_size = 10;
    cfg.split_bits = 2;
    cfg.mig_base = 300 * kMsec;  // long enough for bursts to overlap
    return cfg;
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng.uniform(0, n - 1));
  }

  Rng rng;
  std::vector<InodeId> dirs;
  int next_name = 0;
  std::uint64_t next_req = 0;
};

TEST(FreezeRule, MatchesFragContainsOverActiveMigrations) {
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FreezeHistory t(seed);
    for (int i = 0; i < 600; ++i) {
      t.step();
      t.check();
      if (HasFatalFailure()) return;
    }
    // The history must have exercised what the rule has to get right:
    // overlapping exports, nested directories, split frags, and frozen
    // frags reached both directly and through their ancestry.
    EXPECT_GE(t.max_active, 3u);
    EXPECT_GE(*std::max_element(t.depth.begin(), t.depth.end()), 3);
    EXPECT_GT(t.splits(), 0u);
    EXPECT_GT(t.frozen_checks, 0u);
    EXPECT_GT(t.thawed_checks, 0u);
    EXPECT_GT(t.ancestry_checks, 0u);
  }
}

}  // namespace
}  // namespace mantle::cluster
