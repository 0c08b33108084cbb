/// \file mantle_perf.cpp
/// One run of one benchmark workload through the public sim::Scenario /
/// cluster::MdsCluster API, reported as a single JSON line on stdout.
/// perfbench/run.py starts one process per run, so `peak_rss_mb` is the
/// high-water mark of a process that ran this workload only, and takes
/// medians across runs; see perfbench/README.md for what each workload
/// and metric is for.
///
///   mantle_perf --workload scale512|compile_lua|create_faults --seed N
///               [--shards S] [--threads K] [--traced] [--smoke]
///
/// Untraced runs (the timed ones) switch the phase profiler off and
/// install the balancers as they are. `--traced` wraps every rank's
/// balancer in TimedBalancer, enables the profiler and times const
/// cluster calls inside the imbalance probe; both modes schedule the same
/// probe events, so their metrics snapshots must be byte-identical.
/// `--smoke` shrinks every workload to well under a second of host time.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "balancers/builtin.hpp"
#include "core/mantle.hpp"
#include "fault/fault.hpp"
#include "obs/profile.hpp"
#include "sim/scenario.hpp"
#include "workloads/compile.hpp"
#include "workloads/create_heavy.hpp"

namespace {

using namespace mantle;  // NOLINT
using cluster::PopSnapshot;
using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Coefficient of variation across per-rank values (0 when flat or idle),
/// as in bench/fig_scale.cpp's imbalance probe.
double cv_of(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double mean = 0;
  for (const double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  if (mean <= 0) return 0;
  double var = 0;
  for (const double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  return std::sqrt(var) / mean;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Forwards every call to the wrapped workload and counts the ops it hands
/// out, so "attempted" is measured rather than derived from the options.
class CountingWorkload final : public sim::Workload {
 public:
  explicit CountingWorkload(std::unique_ptr<sim::Workload> inner)
      : inner_(std::move(inner)) {}
  std::optional<sim::WorkOp> next(Rng& rng) override {
    std::optional<sim::WorkOp> op = inner_->next(rng);
    if (op) ++issued_;
    return op;
  }
  Time think_time(Rng& rng) override { return inner_->think_time(rng); }
  std::string name() const override { return inner_->name(); }
  std::uint64_t issued() const { return issued_; }

 private:
  std::unique_ptr<sim::Workload> inner_;
  std::uint64_t issued_ = 0;
};

/// Forwarding decorator that counts and times every hook call. Each rank
/// owns one instance and a rank's hooks only ever run on its own lane, so
/// the plain counters need no synchronisation.
class TimedBalancer final : public cluster::Balancer {
 public:
  enum Hook { kMetaload, kMdsload, kWhen, kWhere, kHowmuch, kNumHooks };
  struct HookStats {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };

  explicit TimedBalancer(std::unique_ptr<cluster::Balancer> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  EvalStats eval_stats() const override { return inner_->eval_stats(); }
  void attach_observability(obs::MetricsRegistry* metrics,
                            obs::TraceSink* trace) override {
    inner_->attach_observability(metrics, trace);
  }
  double metaload(const cluster::PopSnapshot& pop) const override {
    return timed(kMetaload, [&] { return inner_->metaload(pop); });
  }
  double mdsload(const cluster::HeartbeatPayload& hb) const override {
    return timed(kMdsload, [&] { return inner_->mdsload(hb); });
  }
  bool when(const cluster::ClusterView& view) override {
    return timed(kWhen, [&] { return inner_->when(view); });
  }
  std::vector<double> where(const cluster::ClusterView& view) override {
    return timed(kWhere, [&] { return inner_->where(view); });
  }
  std::vector<std::string> howmuch() const override {
    return timed(kHowmuch, [&] { return inner_->howmuch(); });
  }

  const std::array<HookStats, kNumHooks>& stats() const { return stats_; }

 private:
  template <typename F>
  std::invoke_result_t<F&> timed(Hook h, F&& f) const {
    const Clock::time_point t0 = Clock::now();
    auto out = f();
    stats_[h].ns += ns_since(t0);
    ++stats_[h].calls;
    return out;
  }

  std::unique_ptr<cluster::Balancer> inner_;
  mutable std::array<HookStats, kNumHooks> stats_{};
};

constexpr std::array<const char*, TimedBalancer::kNumHooks> kHookNames = {
    "metaload", "mdsload", "when", "where", "howmuch"};

/// Host time of const cluster calls, sampled from inside the imbalance
/// probe of a traced run. MdsNode::measure() is never called (it draws
/// from the rank's RNG); measure_walk repeats its namespace walk instead.
/// The calls live in another translation unit, so their results need not
/// be consumed for the timed work to happen.
struct LayerProbe {
  std::uint64_t samples = 0;
  std::uint64_t gather_ns_rank0 = 0;
  std::uint64_t subtree_pop_ns_rank0 = 0;
  std::uint64_t subtree_entries_ns_rank0 = 0;
  std::uint64_t measure_walk_ns_rank0 = 0;
  std::vector<std::uint64_t> gather_ns;  // per rank
  balancers::OriginalBalancer policy;    // private; never installed

  void sample(cluster::MdsCluster& c, Time now) {
    const int n = c.num_mds();
    gather_ns.resize(static_cast<std::size_t>(n), 0);
    ++samples;
    for (int r = 0; r < n; ++r) {
      Clock::time_point t0 = Clock::now();
      const std::vector<mds::DirFragId> roots = c.roots_of(r);
      double load = 0;
      for (const mds::DirFragId& root : roots)
        load += policy.metaload(c.subtree_pop(root, r, now));
      c.auth_entry_count(r);
      if (r == 0) {
        measure_walk_ns_rank0 += ns_since(t0);
        t0 = Clock::now();
        for (const mds::DirFragId& root : roots) c.subtree_pop(root, r, now);
        subtree_pop_ns_rank0 += ns_since(t0);
        t0 = Clock::now();
        for (const mds::DirFragId& root : roots) c.subtree_entry_count(root, r);
        subtree_entries_ns_rank0 += ns_since(t0);
      }
      // Target: an even share of the rank's own auth load, the order of
      // magnitude a where() hook hands each importer.
      t0 = Clock::now();
      c.gather_candidates(r, load / n, policy, now);
      const std::uint64_t g = ns_since(t0);
      gather_ns[static_cast<std::size_t>(r)] += g;
      if (r == 0) gather_ns_rank0 += g;
    }
  }
};

struct Run {
  std::unique_ptr<sim::Scenario> s;
  std::unique_ptr<fault::FaultInjector> faults;
  std::vector<CountingWorkload*> counted;  // owned by the clients
  std::vector<TimedBalancer*> timed;       // owned by the nodes
  std::vector<std::uint64_t> prev_done;
  std::vector<double> cv_series;
  LayerProbe layer;
};

std::unique_ptr<cluster::Balancer> maybe_timed(
    Run& run, bool traced, std::unique_ptr<cluster::Balancer> b) {
  if (!traced) return b;
  auto t = std::make_unique<TimedBalancer>(std::move(b));
  run.timed.push_back(t.get());
  return t;
}

/// What one invocation runs: the workload inputs (seed, smoke size), the
/// execution driver (shards S, 0 = classic; worker threads K) and whether
/// the run is traced.
struct Params {
  std::uint64_t seed = 0;
  int shards = 0;
  int threads = 1;
  bool traced = false;
  bool smoke = false;
};

sim::ScenarioConfig base_config(const Params& p, int ranks) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = ranks;
  cfg.cluster.seed = p.seed;
  cfg.cluster.shards = p.shards;
  cfg.threads = p.threads;
  return cfg;
}

void add_counted_client(Run& run, std::unique_ptr<sim::Workload> wl) {
  auto c = std::make_unique<CountingWorkload>(std::move(wl));
  run.counted.push_back(c.get());
  run.s->add_client(std::move(c));
}

/// fig_scale's 512-rank point (bench/fig_scale.cpp, full mode); by
/// default on the sharded path with S = 8, K = 4.
void setup_scale512(Run& run, const Params& p) {
  const bool smoke = p.smoke;
  const int ranks = smoke ? 32 : 512;
  const std::uint64_t modeled = smoke ? 100'000 : 1'000'000;
  sim::ScenarioConfig cfg = base_config(p, ranks);
  cfg.cluster.split_size = smoke ? 1000 : 5000;
  cfg.cluster.bal_interval = smoke ? kSec : 10 * kSec;
  const Time duration = smoke ? 3 * kSec : 20 * kSec;
  cfg.max_time = duration + 30 * kSec;
  run.s = std::make_unique<sim::Scenario>(cfg);
  run.s->cluster().set_balancer_all([&](int) {
    return maybe_timed(run, p.traced,
                       std::make_unique<balancers::OriginalBalancer>());
  });
  for (int c = 0; c < 4; ++c)
    add_counted_client(run, workloads::make_private_create_workload(
                                c, smoke ? 50 : 200, 100));
  const int npops = std::clamp(ranks / 8, 1, 16);
  const int dirs_per_pop = std::clamp(ranks / npops, 4, 64);
  const double total_sim_rate = std::min(40.0 * ranks, 6144.0);
  for (int pop = 0; pop < npops; ++pop) {
    sim::PopulationConfig pc;
    pc.modeled_clients = modeled / static_cast<std::uint64_t>(npops);
    pc.ops_per_client = 1.0;
    pc.sim_rate = total_sim_rate / npops;
    pc.duration = duration;
    pc.tick = 50 * kMsec;
    pc.create_frac = 0.3;
    for (int d = 0; d < dirs_per_pop; ++d)
      pc.dirs.push_back("/scale" + std::to_string(pop) + "/d" +
                        std::to_string(d));
    run.s->add_population(pc);
  }
}

/// The paper's Fig. 9/10 compile job at 32 ranks: Listing 4 (Adaptable)
/// in Lua on every rank, default (classic) driver.
void setup_compile_lua(Run& run, const Params& p) {
  const bool smoke = p.smoke;
  const int ranks = smoke ? 4 : 32;
  sim::ScenarioConfig cfg = base_config(p, ranks);
  cfg.cluster.bal_interval = kSec;
  run.s = std::make_unique<sim::Scenario>(cfg);
  run.s->cluster().set_balancer_all([&](int) {
    return maybe_timed(run, p.traced,
                       std::make_unique<core::MantleBalancer>(
                           core::scripts::adaptable()));
  });
  for (int c = 0; c < ranks; ++c) {
    workloads::CompileOptions o;
    o.root = "/client" + std::to_string(c);
    o.files_per_dir = smoke ? 15 : 40;
    o.compile_ops = smoke ? 1500 : 12000;
    o.read_ops = smoke ? 300 : 2500;
    o.link_rounds = smoke ? 3 : 8;
    add_counted_client(run, std::make_unique<workloads::CompileWorkload>(o));
  }
}

/// Shared-directory creates under Listing 1 (Greedy Spill) in Lua, with a
/// crash/restart of mds1, heartbeat drops and delays, and store faults.
/// 4000 files per client rather than 8000: at 8000 a quarter of the seeds
/// keep nearly all load on one rank after the takeover (p50 ~11 ms versus
/// ~2.3 ms) and one run costs ~2.8 s, so too few seeds fit in a run for a
/// steady median; README.md records both measurements.
void setup_create_faults(Run& run, const Params& p) {
  const bool smoke = p.smoke;
  const int ranks = smoke ? 4 : 8;
  const int clients = smoke ? 4 : 16;
  sim::ScenarioConfig cfg = base_config(p, ranks);
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  cfg.retry.timeout = kSec;
  cfg.max_time = 10 * kMinute;
  run.s = std::make_unique<sim::Scenario>(cfg);
  run.s->cluster().set_balancer_all([&](int) {
    return maybe_timed(run, p.traced,
                       std::make_unique<core::MantleBalancer>(
                           core::scripts::greedy_spill()));
  });
  // The shared directory pre-exists (admin setup, as populations do it),
  // so no client loses a mkdir race and every op is expected to succeed.
  auto& ns = run.s->cluster().ns();
  ns.mkdir(ns.root(), "shared", 0);
  for (int c = 0; c < clients; ++c) {
    workloads::CreateHeavyWorkload::Options o;
    o.dir = "/shared";
    o.make_dir = false;
    o.num_files = smoke ? 1000 : 4000;
    o.name_prefix = "c" + std::to_string(c) + "_";
    o.think_mean = 200;
    add_counted_client(run,
                       std::make_unique<workloads::CreateHeavyWorkload>(o));
  }
  fault::FaultPlan plan;
  plan.seed = p.seed;
  plan.crashes.push_back({smoke ? kSec / 4 : 8 * kSec, 1});
  plan.restarts.push_back({smoke ? kSec / 2 : 16 * kSec, 1});
  plan.hb_drop_prob = 0.05;
  plan.hb_delay_prob = 0.05;
  plan.hb_delay_max = 2 * kSec;
  plan.store_fail_prob = 0.01;
  run.faults = std::make_unique<fault::FaultInjector>(plan);
  run.faults->arm(run.s->cluster());
}

/// The imbalance probe of bench/fig_scale.cpp: CV across ranks of the
/// per-second completion deltas. Scheduled identically in timed and traced
/// runs; only a traced run adds the LayerProbe timings.
void add_probe(Run& run, bool traced) {
  sim::Scenario& s = *run.s;
  const int ranks = s.cluster().num_mds();
  run.prev_done.assign(static_cast<std::size_t>(ranks), 0);
  s.add_probe(kSec, [&run, &s, ranks, traced](Time now) {
    std::vector<double> delta(static_cast<std::size_t>(ranks));
    for (int m = 0; m < ranks; ++m) {
      const std::size_t i = static_cast<std::size_t>(m);
      const std::uint64_t done = s.cluster().node(m).stats().completed;
      delta[i] = static_cast<double>(done - run.prev_done[i]);
      run.prev_done[i] = done;
    }
    run.cv_series.push_back(cv_of(delta));
    if (traced) run.layer.sample(s.cluster(), now);
  });
}

/// Builds the one-line JSON result. Keys and string values are fixed
/// identifiers, so nothing needs escaping.
struct Emit {
  std::string body;
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    field(key, buf);
  }
  void u64(const char* key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void str(const char* key, const std::string& v) {
    field(key, "\"" + v + "\"");
  }
  void field(const std::string& key, const std::string& raw) {
    body += body.empty() ? "{" : ", ";
    body += "\"" + key + "\": " + raw;
  }
  std::string close() const { return body + "}"; }
};

int usage() {
  std::fprintf(stderr,
               "usage: mantle_perf --workload scale512|compile_lua|"
               "create_faults --seed N [--shards S] [--threads K] [--traced] "
               "[--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  Params p;
  bool have_seed = false;
  int shards = -1;
  int threads = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      p.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--shards" && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else if (a == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (a == "--traced") {
      p.traced = true;
    } else if (a == "--smoke") {
      p.smoke = true;
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();
  if (name != "scale512" && name != "compile_lua" && name != "create_faults")
    return usage();
  // Default drivers: scale512 is fig_scale's sharded point (S = 8, K = 4);
  // the other two keep cluster.shards at its default.
  p.shards = shards >= 0 ? shards : name == "scale512" ? 8 : 0;
  p.threads = threads >= 0 ? threads : p.shards > 0 ? 4 : 1;
  if (p.threads < 1 || (p.shards == 0 && p.threads != 1)) return usage();

  obs::Profiler& prof = obs::Profiler::instance();
  prof.set_enabled(p.traced);
  prof.reset();

  // -- setup: scenario, balancers (incl. Lua compile), clients, faults ----
  Run run;
  const Clock::time_point t_setup = Clock::now();
  if (name == "scale512")
    setup_scale512(run, p);
  else if (name == "compile_lua")
    setup_compile_lua(run, p);
  else
    setup_create_faults(run, p);
  add_probe(run, p.traced);
  const double setup_s = 1e-9 * static_cast<double>(ns_since(t_setup));

  // -- run until drained --------------------------------------------------
  sim::Scenario& s = *run.s;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t_run = Clock::now();
  s.run();
  // fig_scale's post-run drain: let in-flight 2PC exports finish.
  if (name == "scale512")
    for (int i = 0; i < 30 && s.cluster().active_migration_count() > 0; ++i)
      s.run_extra(kSec);
  const double wall_s = 1e-9 * static_cast<double>(ns_since(t_run));
  const double cpu_s = cpu_seconds() - cpu0;

  // Snapshot first: the registry's get-or-create lookups below must not
  // be able to add names to what the digest covers.
  cluster::MdsCluster& c = s.cluster();
  const std::string metrics_json = c.metrics().to_json();
  const auto counter = [&](const char* n) -> std::uint64_t {
    return metrics_json.find(std::string("\"") + n + "\"") == std::string::npos
               ? 0
               : c.metrics().counter(n).value();
  };

  // -- outcome and correctness --------------------------------------------
  std::uint64_t attempted = 0, completed = 0, failed = 0, retries = 0;
  std::vector<std::string> breaches;
  for (std::size_t i = 0; i < s.clients().size(); ++i) {
    const sim::Client& cl = *s.clients()[i];
    const std::uint64_t issued = run.counted[i]->issued();
    attempted += issued;
    completed += cl.ops_completed();
    failed += cl.ops_failed();
    retries += cl.retries();
    if (issued != cl.ops_completed() + cl.ops_failed())
      breaches.push_back("client_conservation");
  }
  if (!s.populations().empty()) {
    const std::uint64_t arrivals = counter("pop_arrivals_total");
    const std::uint64_t pop_done = counter("pop_ops_completed_total");
    const std::uint64_t pop_failed = counter("pop_ops_failed_total");
    // The pop_outstanding gauge holds whichever population wrote last;
    // the sum comes from the populations themselves.
    std::uint64_t outstanding = 0;
    for (const auto& pop : s.populations()) {
      outstanding += pop->outstanding();
      retries += pop->retries();
    }
    if (arrivals != pop_done + pop_failed + outstanding)
      breaches.push_back("population_conservation");
    attempted += arrivals;
    completed += pop_done;
    failed += pop_failed;
  }
  std::sort(breaches.begin(), breaches.end());
  breaches.erase(std::unique(breaches.begin(), breaches.end()),
                 breaches.end());

  const SampleSet lat = s.pooled_latencies_ms();
  double cv_mean = 0;
  for (const double cv : run.cv_series) cv_mean += cv;
  if (!run.cv_series.empty())
    cv_mean /= static_cast<double>(run.cv_series.size());
  const auto pool = s.sim_pool_stats();
  const std::uint64_t events = counter("sim_events_dispatched_total");

  Emit e;
  e.str("workload", name);
  e.u64("seed", p.seed);
  e.str("driver", p.shards > 0 ? "sharded" : "classic");
  e.u64("shards", static_cast<std::uint64_t>(p.shards));
  e.u64("threads", static_cast<std::uint64_t>(p.threads));
  e.u64("host_cpus", std::thread::hardware_concurrency());
  e.str("build_type", MANTLE_PERF_BUILD_TYPE);
  e.u64("traced", p.traced ? 1 : 0);
  e.u64("smoke", p.smoke ? 1 : 0);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, fnv1a(metrics_json));
  e.str("metrics_digest", digest);
  std::string b = "[";
  for (std::size_t i = 0; i < breaches.size(); ++i)
    b += (i ? ", \"" : "\"") + breaches[i] + "\"";
  e.field("breaches", b + "]");
  e.u64("attempted", attempted);
  e.u64("completed", completed);
  e.u64("failed", failed);

  e.num("setup_s", setup_s);
  e.num("wall_s", wall_s);
  e.num("peak_rss_mb", peak_rss_mb());
  e.num("sim_ops_per_s", s.aggregate_throughput());
  // Completion of the closed-loop jobs. A population's end is its arrival
  // window, an input; with none present this is Scenario::makespan().
  Time job_end = 0;
  for (const auto& cl : s.clients())
    job_end = std::max(job_end, cl->done() ? cl->finished_at() : s.sim_now());
  e.num("sim_makespan_s", to_seconds(job_end));
  e.num("sim_latency_p50_ms", lat.percentile(0.50));
  e.num("sim_latency_p99_ms", lat.percentile(0.99));
  e.u64("sim_latency_samples", lat.count());
  e.num("imbalance_cv", cv_mean);

  if (p.traced) {
    std::array<TimedBalancer::HookStats, TimedBalancer::kNumHooks> hooks{};
    for (const TimedBalancer* t : run.timed)
      for (int h = 0; h < TimedBalancer::kNumHooks; ++h) {
        hooks[h].calls += t->stats()[h].calls;
        hooks[h].ns += t->stats()[h].ns;
      }
    std::uint64_t steps = 0, misses = 0;
    for (int r = 0; r < c.num_mds(); ++r) {
      const auto ev = c.node(r).balancer()->eval_stats();
      steps += ev.lua_steps;
      misses += ev.cache_misses;
    }
    std::uint64_t picks = 0;
    for (const auto& rec : c.provenance().snapshot())
      for (const auto& ship : rec.ships) picks += ship.picks.size();
    const std::uint64_t ticks =
        counter("bal_when_true_total") + counter("bal_when_false_total");
    const std::uint64_t started = counter("migrations_started_total");
    const auto self_s = [&](obs::ProfilePhase p) {
      return 1e-9 * static_cast<double>(prof.stats(p).self_ns);
    };
    const auto wall_of = [&](obs::ProfilePhase p) {
      return 1e-9 * static_cast<double>(prof.stats(p).wall_ns);
    };
    const LayerProbe& lp = run.layer;
    const double per_sample =
        lp.samples ? 1e-3 / static_cast<double>(lp.samples) : 0.0;
    std::vector<double> gather_us;
    for (const std::uint64_t g : lp.gather_ns)
      gather_us.push_back(static_cast<double>(g) * per_sample);

    Emit l;
    l.num("sim.events", static_cast<double>(events));
    l.num("sim.host_ns_per_event",
          events ? wall_s * 1e9 / static_cast<double>(events) : 0.0);
    l.num("sim.peak_live_events", static_cast<double>(pool.peak_live));
    l.num("sim.pool_bytes", static_cast<double>(pool.bytes_reserved));
    l.num("sim.cpu_s", cpu_s);
    l.num("sim.parallel_eff", wall_s > 0 ? cpu_s / (p.threads * wall_s) : 0.0);
    l.num("profile.engine_dispatch_self_s",
          self_s(obs::ProfilePhase::EngineDispatch));
    l.num("profile.cluster_tick_self_s",
          self_s(obs::ProfilePhase::ClusterTick));
    l.num("profile.hook_eval_s", wall_of(obs::ProfilePhase::HookEval));
    l.num("profile.population_sample_s",
          wall_of(obs::ProfilePhase::PopulationSample));
    l.num("cluster.gather_us.rank0",
          static_cast<double>(lp.gather_ns_rank0) * per_sample);
    l.num("cluster.gather_us.median_rank", median_of(gather_us));
    l.num("cluster.subtree_pop_us.rank0",
          static_cast<double>(lp.subtree_pop_ns_rank0) * per_sample);
    l.num("cluster.subtree_entries_us.rank0",
          static_cast<double>(lp.subtree_entries_ns_rank0) * per_sample);
    l.num("cluster.measure_walk_us.rank0",
          static_cast<double>(lp.measure_walk_ns_rank0) * per_sample);
    l.num("cluster.candidates_per_tick",
          ticks ? static_cast<double>(hooks[TimedBalancer::kMetaload].calls) /
                      static_cast<double>(ticks)
                : 0.0);
    l.num("cluster.ticks", static_cast<double>(ticks));
    l.num("cluster.heartbeats_sent",
          static_cast<double>(counter("mds_heartbeats_sent_total")));
    l.num("cluster.exports_started", static_cast<double>(started));
    l.num("cluster.exports_committed",
          static_cast<double>(counter("migrations_committed_total")));
    l.num("cluster.exports_aborted",
          static_cast<double>(counter("migrations_aborted_total")));
    l.num("cluster.export_yield",
          picks ? static_cast<double>(started) / static_cast<double>(picks)
                : 0.0);
    l.num("cluster.forwards", static_cast<double>(c.total_forwards()));
    std::uint64_t hook_ns = 0;
    for (int h = 0; h < TimedBalancer::kNumHooks; ++h) {
      l.num((std::string("core.hook_calls.") + kHookNames[h]).c_str(),
            static_cast<double>(hooks[h].calls));
      l.num((std::string("core.hook_us.") + kHookNames[h]).c_str(),
            1e-3 * static_cast<double>(hooks[h].ns));
      hook_ns += hooks[h].ns;
    }
    l.num("lua.steps", static_cast<double>(steps));
    l.num("lua.ns_per_step",
          steps ? static_cast<double>(hook_ns) / static_cast<double>(steps)
                : 0.0);
    l.num("core.policy_cache_misses", static_cast<double>(misses));
    l.num("mds.splits", static_cast<double>(counter("dirfrag_splits_total")));
    l.num("mds.merges", static_cast<double>(counter("dirfrag_merges_total")));
    std::uint64_t injected = 0;
    if (run.faults) {
      const fault::FaultCounters& f = run.faults->counters();
      injected = f.crashes + f.restarts + f.hb_dropped + f.hb_duplicated +
                 f.hb_delayed + f.store_faults;
    }
    l.num("fault.injected", static_cast<double>(injected));
    l.num("client.retries", static_cast<double>(retries));
    l.num("client.ops_failed", static_cast<double>(failed));
    l.num("obs.trace_events", static_cast<double>(c.trace().size()));
    l.num("obs.trace_dropped", static_cast<double>(c.trace().dropped_events()));
    l.num("obs.provenance_records",
          static_cast<double>(counter("mantle_provenance_records_total")));
    e.field("layer", l.close());
  }

  std::printf("%s\n", e.close().c_str());
  return 0;
}
