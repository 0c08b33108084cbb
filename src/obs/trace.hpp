#pragma once

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"

/// \file trace.hpp
/// The tracing half of the observability layer: a bounded, append-only
/// sink of typed events with *simulated* timestamps. Everything an
/// operator would want on a timeline when debugging a balancing run goes
/// through here — heartbeat traffic, the when/where/howmuch decisions
/// with their inputs and outputs, the 2PC export phases, dirfrag
/// split/merge, crash/takeover/replay, dead-letter parking and fault
/// injections. Because timestamps come from the discrete-event clock and
/// payloads are appended in dispatch order, two identical seeded runs
/// (faults included) serialize to byte-identical JSON.
///
/// Events are *causal*: every client op, 2PC migration, balancer tick and
/// crash-recovery episode is assigned a monotonic span id (allocated from
/// this sink, so two identical runs number spans identically), and events
/// belonging to the same episode carry that id. `parent` links a span to
/// the span that caused it (a migration to the balancer tick that decided
/// it). to_perfetto() renders the same timeline in Chrome-trace JSON so a
/// dump opens in ui.perfetto.dev as one track per MDS rank.

namespace mantle::obs {

using mantle::Time;

enum class EventKind : int {
  HeartbeatSent = 0,
  HeartbeatReceived,  ///< no longer emitted; kept so older dumps still parse
  HeartbeatDropped,
  HeartbeatDuplicated,
  WhenDecision,
  WhereDecision,
  HowmuchDecision,
  ExportStart,
  ExportCommit,
  ExportAbort,
  DirfragSplit,
  DirfragMerge,
  DeadLetterParked,
  DeadLetterFlushed,
  Crash,
  Restart,
  TakeoverStart,
  TakeoverComplete,
  ReplayComplete,
  FaultInjected,
  PolicyRecompile,
  ShadowVerdict,  ///< shadow evaluation accepted/rejected a candidate policy
  FuzzCrash,      ///< hook-input fuzzer found an invariant violation
  HeartbeatStaleRejected,  ///< stale-epoch/out-of-order heartbeat refused
  ExportRetry,             ///< aborted 2PC export re-attempted after backoff
  InvariantViolation,      ///< chaos invariant checker caught a violation
  ProvenanceRecorded,      ///< decision provenance record captured this tick
  // Keep kLastEventKind in sync when appending kinds.
};

inline constexpr EventKind kLastEventKind = EventKind::ProvenanceRecorded;

const char* event_kind_name(EventKind kind);

/// Span ids are positive; kNoSpan marks an event outside any span.
using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

/// One timeline entry. `rank` is the subject MDS, `peer` the other end
/// (importer, heartbeat receiver, takeover survivor, ...); -1 = n/a.
/// `detail` is a short deterministic string (dirfrag id, fault kind);
/// `fields` carries the numeric inputs/outputs of the event in
/// append order. `span` groups events of one causal episode (a client
/// op, a 2PC migration, a balancer tick, a crash-recovery sequence);
/// `parent` is the span that caused this one, if any.
struct TraceEvent {
  Time at = 0;
  EventKind kind = EventKind::HeartbeatSent;
  int rank = -1;
  int peer = -1;
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
  std::string detail;
  std::vector<std::pair<std::string, double>> fields;
};

class TraceSink {
 public:
  /// `capacity` bounds memory on long runs; once full, new events are
  /// counted in dropped_events() instead of stored (the cap itself is
  /// deterministic, so bounded timelines still compare byte-for-byte).
  explicit TraceSink(std::size_t capacity = std::size_t{1} << 20)
      : capacity_(capacity) {}

  /// Sharded mode: give each shard lane a private event buffer and a
  /// private span-id stream. Events recorded from shard lanes are
  /// buffered lock-free (one thread per shard) and folded into the main
  /// timeline by drain_shards() — called by the shard runtime at every
  /// epoch barrier, in fixed shard order, with the capacity bound and
  /// dropped accounting applied at drain time. That makes the stored
  /// timeline a pure function of the (config, seed, shard count)
  /// schedule, independent of how many worker threads ran it.
  ///
  /// Shard span ids live in disjoint ranges — shard s allocates
  /// ((s+1) << 44) | n — so they never collide with the serial-lane
  /// stream and stay deterministic without cross-shard coordination.
  void enable_sharding(int shards);
  /// Fold all shard buffers into the timeline (fixed shard order).
  void drain_shards();

  void record(TraceEvent ev);

  /// Convenience builder for call sites.
  void event(Time at, EventKind kind, int rank = -1, int peer = -1,
             std::string detail = {},
             std::initializer_list<std::pair<const char*, double>> fields = {},
             SpanId span = kNoSpan, SpanId parent = kNoSpan);

  /// Allocate the next causal span id. Allocation order follows event
  /// dispatch order, so identical seeded runs number spans identically.
  SpanId next_span();
  /// Spans allocated so far (equals the largest id handed out).
  std::uint64_t spans_allocated() const;

  std::size_t size() const;
  std::uint64_t dropped_events() const;
  std::vector<TraceEvent> snapshot() const;

  /// The whole timeline as one JSON array of event objects.
  std::string to_json() const;

  /// The timeline in Chrome-trace/Perfetto JSON: one track (tid) per MDS
  /// rank under a single "mantle" process, migrations as async
  /// begin/end pairs keyed by span id, everything else as instants.
  /// Open the dump directly in ui.perfetto.dev or chrome://tracing.
  ///
  /// The default (no profiler) output is a pure function of the
  /// recorded events and stays byte-identical across same-seed runs.
  /// Passing a Profiler additionally appends one wall-clock counter
  /// track per phase ("profile:<phase>") — that overload is for the
  /// opt-in MANTLE_PROFILE_DUMP side files only, never the
  /// deterministic dumps.
  std::string to_perfetto() const;
  std::string to_perfetto(const class Profiler* profiler) const;

  void clear();

 private:
  struct alignas(64) ShardLane {  // padded: lanes are written concurrently
    std::vector<TraceEvent> buffer;
    std::uint64_t spans = 0;  // local span counter for this shard's stream
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_span_ = 0;
  std::vector<ShardLane> lanes_;  // empty in classic serial mode
};

}  // namespace mantle::obs
