#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"

/// Differential test for the per-frag directory index (DirFrag::subdirs)
/// that the region walks follow. Seeded histories mix every namespace
/// mutation with splits, merges, exports, commits and crash-aborts; after
/// every step the index must equal the directory subset of the dentries,
/// and the cluster's walks must equal a test-local walk that scans every
/// dentry instead.

namespace mantle::cluster {
namespace {

using mantle::mds::DirFrag;
using mantle::mds::frag_t;
using mantle::mds::InodeId;
using mantle::mds::kNoInode;
using mantle::mds::kNoRank;
using mantle::mds::MetaOp;
using mantle::mds::Namespace;

/// The region walk as it was before the index: depth-first over an
/// explicit LIFO stack, children found by scanning every dentry.
std::vector<DirFragId> scan_walk(const Namespace& ns, const DirFragId& root,
                                 MdsRank rank) {
  std::vector<DirFragId> out;
  std::vector<DirFragId> stack{root};
  while (!stack.empty()) {
    const DirFragId cur = stack.back();
    stack.pop_back();
    const DirFrag* f = ns.frag(cur);
    if (f == nullptr) continue;
    if (rank != kNoRank && f->auth != rank) continue;
    out.push_back(cur);
    for (const auto& [name, ino] : f->dentries) {
      const mantle::mds::Dir* child = ns.dir(ino);
      if (child == nullptr) continue;
      for (const auto& [cf, cdf] : child->frags) stack.push_back({ino, cf});
    }
  }
  return out;
}

class IndexHistory {
 public:
  static constexpr int kRanks = 4;

  explicit IndexHistory(std::uint64_t seed)
      : cluster(engine, config(seed)), rng(seed) {
    cluster.set_reply_handler([](const Reply&) {});
    // Records the omap writes of flush_dirty, in issue order.
    cluster.object_store().set_fault_hook(
        [this](store::StoreOp op, const std::string& oid) {
          if (op == store::StoreOp::OmapWrite) omap_writes.push_back(oid);
          return false;
        });
  }

  void step() {
    Namespace& ns = cluster.ns();
    const Time now = engine.now();
    const std::uint64_t roll = rng.uniform(0, 99);
    const std::vector<InodeId> dirs = ns.subtree_dirs(ns.root());
    const std::string fresh = "n" + std::to_string(next_name++);
    if (roll < 25) {
      // Most files land in the first few directories, so those split.
      const InodeId d = dirs[pick(std::min<std::size_t>(dirs.size(), 3))];
      if (ns.create(d, fresh, now) != kNoInode)
        cluster.maybe_split(ns.frag_of(d, fresh));
    } else if (roll < 38) {
      if (dirs.size() < 60) {
        const InodeId d = dirs[pick(dirs.size())];
        if (ns.mkdir(d, fresh, now) != kNoInode)
          cluster.maybe_split(ns.frag_of(d, fresh));
      }
    } else if (roll < 46) {
      const auto files = entries(false);
      if (!files.empty()) {
        const auto& [parent, name] = files[pick(files.size())];
        if (ns.remove(parent, name)) cluster.maybe_merge(parent);
      }
    } else if (roll < 52) {
      std::vector<std::pair<InodeId, std::string>> empty;
      for (const auto& [parent, name] : entries(true))
        if (ns.dir(ns.lookup(parent, name))->num_entries() == 0)
          empty.emplace_back(parent, name);
      if (!empty.empty()) {
        const auto& [parent, name] = empty[pick(empty.size())];
        if (ns.remove(parent, name)) {
          ++rmdirs;
          cluster.maybe_merge(parent);
        }
      }
    } else if (roll < 68) {
      // File and directory renames; a directory move into its own
      // subtree is refused by the namespace.
      const bool move_dir = roll >= 60;
      const auto from = entries(move_dir);
      if (!from.empty()) {
        const auto& [parent, name] = from[pick(from.size())];
        if (ns.rename(parent, name, dirs[pick(dirs.size())], fresh) && move_dir)
          ++dir_renames;
      }
    } else if (roll < 80) {
      const InodeId d = dirs[pick(dirs.size())];
      const mantle::mds::Dir* dir = ns.dir(d);
      auto it = dir->frags.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(pick(dir->frags.size())));
      cluster.export_subtree({d, it->first}, static_cast<MdsRank>(pick(kRanks)));
    } else if (roll < 84) {
      if (cluster.num_up() > 2 && cluster.active_migration_count() > 0)
        cluster.crash_mds(cluster.active_migration_records().front().from);
    } else if (roll < 87) {
      for (MdsRank r = 0; r < kRanks; ++r)
        if (cluster.restart_mds(r)) break;
    } else {
      engine.run_until(now + static_cast<Time>(rng.uniform(1, 200)) * kMsec);
    }
  }

  void check() {
    Namespace& ns = cluster.ns();
    const std::vector<InodeId> dirs = ns.subtree_dirs(ns.root());
    for (const InodeId d : dirs) {
      for (const auto& [f, df] : ns.dir(d)->frags) {
        std::map<std::string, InodeId> expect;
        for (const auto& [name, ino] : df.dentries)
          if (ns.dir(ino) != nullptr) expect.emplace(name, ino);
        ASSERT_EQ(df.subdirs, expect) << DirFragId{d, f}.str();
      }
    }

    const Time now = engine.now();
    const auto& rate = ns.decay_rate();
    for (MdsRank rank = kNoRank; rank < kRanks; ++rank) {
      const std::vector<DirFragId> roots =
          rank == kNoRank ? std::vector<DirFragId>{{ns.root(), frag_t()}}
                          : cluster.roots_of(rank);
      std::vector<std::string> expect_writes;
      std::set<DirFragId> written;
      for (const DirFragId& root : roots) {
        SubtreeStats expect;
        for (const DirFragId& id : scan_walk(ns, root, rank)) {
          const DirFrag& f = *ns.frag(id);
          expect.pop.ird += f.pop.get(MetaOp::IRD, now, rate);
          expect.pop.iwr += f.pop.get(MetaOp::IWR, now, rate);
          expect.pop.readdir += f.pop.get(MetaOp::READDIR, now, rate);
          expect.pop.fetch += f.pop.get(MetaOp::FETCH, now, rate);
          expect.pop.store += f.pop.get(MetaOp::STORE, now, rate);
          expect.entries += f.dentries.size();
          // A frag reachable from two of the rank's roots is written
          // back on the first visit only (it is clean on the second).
          if (written.insert(id).second)
            expect_writes.push_back("dir." + id.str());
        }
        const SubtreeStats got = cluster.subtree_stats(root, rank, now);
        ASSERT_EQ(got.entries, expect.entries) << root.str();
        ASSERT_EQ(got.pop.ird, expect.pop.ird) << root.str();
        ASSERT_EQ(got.pop.iwr, expect.pop.iwr) << root.str();
        ASSERT_EQ(got.pop.readdir, expect.pop.readdir) << root.str();
        ASSERT_EQ(got.pop.fetch, expect.pop.fetch) << root.str();
        ASSERT_EQ(got.pop.store, expect.pop.store) << root.str();
        ASSERT_EQ(cluster.subtree_entry_count(root, rank), expect.entries)
            << root.str();
      }
      if (rank == kNoRank) continue;
      // With every frag dirty, flush_dirty writes back exactly the frags
      // its walks visit, in visit order.
      for (const InodeId d : dirs)
        for (auto& [f, df] : ns.dir(d)->frags) df.dirty = true;
      omap_writes.clear();
      cluster.flush_dirty(rank);
      ASSERT_EQ(omap_writes, expect_writes) << "rank " << rank;
      flushed += omap_writes.size();
    }

    // The freeze rule, over whatever exports commits and crashes left.
    const std::vector<MigrationRecord> active =
        cluster.active_migration_records();
    for (const InodeId d : dirs) {
      for (const auto& [f, df] : ns.dir(d)->frags) {
        const DirFragId id{d, f};
        bool oracle = false;
        for (const MigrationRecord& m : active)
          oracle = oracle || cluster.frag_contains(m.frag, id);
        ASSERT_EQ(cluster.is_frozen(id), oracle) << id.str();
      }
    }
  }

  std::uint64_t counter(const char* name) {
    return cluster.metrics().counter(name).value();
  }

  sim::Engine engine;
  MdsCluster cluster;
  std::vector<std::string> omap_writes;
  std::size_t rmdirs = 0;
  std::size_t dir_renames = 0;
  std::size_t flushed = 0;

 private:
  static ClusterConfig config(std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.num_mds = kRanks;
    cfg.seed = seed;
    cfg.split_size = 8;
    cfg.split_bits = 1;
    cfg.merge_size = 12;
    cfg.mig_base = 150 * kMsec;
    return cfg;
  }

  /// (parent, name) of every directory (other than the root) or file.
  std::vector<std::pair<InodeId, std::string>> entries(bool want_dirs) {
    const Namespace& ns = cluster.ns();
    std::vector<std::pair<InodeId, std::string>> out;
    for (const InodeId d : ns.subtree_dirs(ns.root()))
      for (const auto& [f, df] : ns.dir(d)->frags)
        for (const auto& [name, ino] : df.dentries)
          if ((ns.dir(ino) != nullptr) == want_dirs) out.emplace_back(d, name);
    return out;
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng.uniform(0, n - 1));
  }

  Rng rng;
  int next_name = 0;
};

TEST(SubdirIndex, MatchesDentryScan) {
  for (const std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    IndexHistory t(seed);
    for (int i = 0; i < 600; ++i) {
      t.step();
      t.check();
      if (HasFatalFailure()) return;
    }
    // The history must have exercised every mutation the index follows.
    EXPECT_GT(t.rmdirs, 0u);
    EXPECT_GT(t.dir_renames, 0u);
    EXPECT_GT(t.counter("dirfrag_splits_total"), 0u);
    EXPECT_GT(t.counter("dirfrag_merges_total"), 0u);
    EXPECT_GT(t.counter("migrations_committed_total"), 0u);
    EXPECT_GT(t.counter("migrations_aborted_total"), 0u);
    EXPECT_GT(t.flushed, 0u);
  }
}

}  // namespace
}  // namespace mantle::cluster
