#pragma once

// In-process replays of a recorded admission op log, single-threaded,
// layer by layer: Service::handle_line, AdmissionController, and the
// analysis layers under it (IncrementalAnalyzer, hp_set, Cal_U,
// timing-diagram build / relax / accumulate_free).  Every call is
// timed here, from outside the layer.

#include <cstdint>
#include <string>
#include <vector>

#include "audit.hpp"
#include "common.hpp"
#include "core/analysis_config.hpp"
#include "core/message_stream.hpp"

namespace pb {

/// One churn operation of the load generator, against a slot (a fixed
/// channel spec that is repeatedly torn down and re-requested).
struct Op {
  enum class Kind : std::uint8_t { kRequest, kRemove };
  Kind kind = Kind::kRequest;
  int slot = 0;
  double t_send_us = 0;  ///< for ordering ops of several connections
  bool admitted = false; ///< REQUEST: the daemon's decision
  wormrt::Time bound = -1;  ///< REQUEST: the daemon's reported bound
};

/// A trace span recorded by the benchmark around one layer call.
struct Span {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root (one recorded op)
  double start_us = 0;
  double dur_us = 0;
};

class SpanLog {
 public:
  /// Keeps at most \p cap spans (the rest are counted, not stored).
  explicit SpanLog(std::size_t cap = 200000) : cap_(cap) {}
  std::int64_t begin() { return ++next_id_; }
  void add(const char* name, std::int64_t id, std::int64_t parent,
           double start_us, double end_us);
  void merge(const SpanLog& other);
  /// Chrome trace_event JSON; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::size_t cap_;
  std::int64_t next_id_ = 0;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
};

struct ReplayInput {
  int mesh_side = 16;
  wormrt::core::AnalysisConfig config;
  /// Population at the start of the window, in the daemon's engine order
  /// (its SNAPSHOT), restored before the window's ops replay.
  std::vector<ChannelSpec> population;
  /// Slot -> channel spec (slot ids of Op::slot).
  std::vector<ChannelSpec> slots;
  /// The window's ops in daemon order.
  std::vector<Op> ops;
};

/// AdmissionController replay: per-decision timings and the decisions
/// themselves (for the exactness check on single-connection runs).
struct ControllerReplay {
  Samples request_us, remove_us;
  std::int64_t requests = 0, rejects = 0;
  std::vector<bool> admitted;       ///< per REQUEST op, in order
  std::vector<wormrt::Time> bounds; ///< per REQUEST op, in order
};
ControllerReplay replay_controller(const ReplayInput& in, SpanLog* spans);

/// Service::handle_line replay, for up to \p budget_s seconds of the
/// window's ops, with a fresh state dir \p state_dir: journal and group
/// commit, with or without fsync.  With fsync it also prices the
/// journal's fsync on this filesystem.  Also times
/// Json::parse / dump on the request lines and replies it produces.
struct ServiceReplay {
  Samples handle_line_us, parse_us, dump_us;
  /// The replay journal's fsyncs (wormrt_journal_fsync_us) over the ops.
  double fsync_us_p50 = 0, fsync_us_p99 = 0, fsync_busy_frac = 0;
};
ServiceReplay replay_service(const ReplayInput& in,
                             const std::string& state_dir, bool fsync,
                             double budget_s, SpanLog* spans);

/// Analysis-layer replay of up to \p budget_s seconds of the ops through
/// an IncrementalAnalyzer, beside an AdmissionController that decides the
/// same ops.  Each mutation runs in a batch, so its bookkeeping is timed
/// apart from the recompute; every recomputed stream's analysis is then
/// re-run piece by piece.
struct LayerReplay {
  std::int64_t mutations = 0;       ///< adds + removes (trial adds count)
  std::int64_t decisions = 0;       ///< REQUEST ops covered
  std::int64_t dirty = 0;           ///< Mutation::dirty entries
  std::int64_t recomputes = 0;      ///< dirty + touched streams re-analysed
  std::int64_t dirty_recomputes = 0;  ///< recomputes of established streams
  std::int64_t changed = 0;         ///< of those, bound changed
  Samples hpset_us, calu_us, build_us, relaxed_build_us, accumulate_us;
  std::int64_t indirect = 0, suppressed = 0;
  /// Time inside add/remove_stream with the recompute deferred: the
  /// digraph and index updates, measured apart from every piece above.
  double bookkeeping_us = 0;
  /// An AdmissionController fed the same ops in lockstep, timed per op,
  /// so the reconciliation compares measurements of the same moments.
  double controller_us = 0;
};
LayerReplay replay_layers(const ReplayInput& in, double budget_s,
                          SpanLog* spans);

}  // namespace pb
