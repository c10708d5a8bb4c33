#pragma once

// Population audit: what a daemon reports (SNAPSHOT + QUERY) against a
// from-scratch Determine-Feasibility of the same population and the
// load generator's own record of which channels it holds.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis_config.hpp"
#include "core/message_stream.hpp"
#include "route/routing.hpp"
#include "topo/topology.hpp"

namespace pb {

/// The defining tuple of a requested channel.
struct ChannelSpec {
  wormrt::topo::NodeId src = 0;
  wormrt::topo::NodeId dst = 0;
  wormrt::Priority priority = 0;
  wormrt::Time period = 0;
  wormrt::Time length = 0;
  wormrt::Time deadline = 0;
};

ChannelSpec spec_of(const wormrt::core::MessageStream& s);

struct AuditInput {
  /// Handles the load generator holds acks for, with what it asked.
  std::map<std::int64_t, ChannelSpec> live;
  /// The daemon's SNAPSHOT csv.
  std::string snapshot_csv;
  /// QUERY bound per live handle; nullopt when the daemon answered
  /// "unknown handle".
  std::map<std::int64_t, std::optional<wormrt::Time>> queried;
};

struct AuditReport {
  int checks = 0;
  std::vector<std::string> mismatches;
};

/// Checks, for every live handle: the daemon still has it (QUERY and
/// SNAPSHOT), its QUERY bound equals the from-scratch bound of the
/// SNAPSHOT population, and that bound meets the deadline (U <= D).
/// SNAPSHOT rows no live handle accounts for are mismatches too.
/// Streams are matched by source node, unique in every generated
/// workload.
AuditReport audit_population(const wormrt::topo::Topology& topo,
                             const wormrt::route::RoutingAlgorithm& routing,
                             const wormrt::core::AnalysisConfig& config,
                             const AuditInput& input);

/// Detection proof: audits an in-process population clean, then with
/// one QUERY bound perturbed by +1, then with one handle dropped from
/// the daemon's view.  Returns true when the clean audit passes and
/// both perturbations are caught; \p log explains.
bool audit_selftest(std::string* log);

}  // namespace pb
