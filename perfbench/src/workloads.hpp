#pragma once

// The benchmark's workloads.  Each run fills one Result: the end-to-end
// metrics when untraced, the per-layer metrics when traced.

#include <cstdint>
#include <string>

#include "common.hpp"

namespace pb {

/// Seed of the stream populations, fixed: random populations differ
/// several-fold in analysis cost (see README.md), which would drown
/// every other change.  RunOptions::seed varies what runs on them.
constexpr std::uint64_t kPopulationSeed = 1;

struct RunOptions {
  std::string workload;
  /// Drives the inputs that vary run to run: the order channels are
  /// established and churned (daemon workloads), and the set order and
  /// message release phases (offline_table5).
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string wormrtd;    ///< path of the wormrtd binary
  std::string root;       ///< private scratch dir of this run
  std::string trace_out;  ///< where the traced run writes its spans
};

/// light_percall, dense_percall: a real wormrtd process under
/// closed-loop churn over Unix sockets.
bool is_service_workload(const std::string& name);
Result run_service_workload(const RunOptions& options);

/// offline_table5: the paper's Section 5 loop in-process.
Result run_offline_workload(const RunOptions& options);

}  // namespace pb
