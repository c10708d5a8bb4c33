#include "audit.hpp"

#include "core/admission.hpp"
#include "core/feasibility.hpp"
#include "core/stream_io.hpp"
#include "core/workload.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"

namespace pb {

using namespace wormrt;

ChannelSpec spec_of(const core::MessageStream& s) {
  return {s.src, s.dst, s.priority, s.period, s.length, s.deadline};
}

namespace {

bool same(const ChannelSpec& a, const core::MessageStream& s) {
  return a.src == s.src && a.dst == s.dst && a.priority == s.priority &&
         a.period == s.period && a.length == s.length &&
         a.deadline == s.deadline;
}

}  // namespace

AuditReport audit_population(const topo::Topology& topo,
                             const route::RoutingAlgorithm& routing,
                             const core::AnalysisConfig& config,
                             const AuditInput& input) {
  AuditReport report;
  auto mismatch = [&](const std::string& what) {
    report.mismatches.push_back(what);
  };
  const core::StreamParseResult parsed =
      core::streams_from_csv(input.snapshot_csv, topo, routing);
  ++report.checks;
  if (!parsed.ok()) {
    mismatch("SNAPSHOT does not parse: " + parsed.error);
    return report;
  }
  const core::StreamSet& streams = parsed.streams;
  const core::FeasibilityReport scratch =
      core::determine_feasibility(streams, config);

  std::map<topo::NodeId, StreamId> by_src;
  for (const core::MessageStream& s : streams) {
    if (!by_src.emplace(s.src, s.id).second) {
      mismatch("SNAPSHOT holds two streams from node " +
               std::to_string(s.src));
    }
  }
  std::vector<bool> claimed(streams.size(), false);
  for (const auto& [handle, spec] : input.live) {
    const std::string who = "handle " + std::to_string(handle);
    report.checks += 3;
    const auto it = by_src.find(spec.src);
    if (it == by_src.end() || !same(spec, streams[it->second])) {
      mismatch(who + " is acked but missing from SNAPSHOT");
      continue;
    }
    claimed[static_cast<std::size_t>(it->second)] = true;
    const auto q = input.queried.find(handle);
    if (q == input.queried.end() || !q->second.has_value()) {
      mismatch(who + " is acked but QUERY does not know it");
      continue;
    }
    const Time expect = scratch.streams[static_cast<std::size_t>(it->second)].bound;
    if (*q->second != expect) {
      mismatch(who + " QUERY bound " + std::to_string(*q->second) +
               " != from-scratch " + std::to_string(expect));
    }
    if (expect == kNoTime || expect > spec.deadline) {
      mismatch(who + " is admitted with U > D (U=" + std::to_string(expect) +
               ", D=" + std::to_string(spec.deadline) + ")");
    }
  }
  for (std::size_t i = 0; i < claimed.size(); ++i) {
    ++report.checks;
    if (!claimed[i]) {
      mismatch("SNAPSHOT row " + std::to_string(i) + " (src " +
               std::to_string(streams[static_cast<StreamId>(i)].src) +
               ") is held by no acked handle");
    }
  }
  return report;
}

bool audit_selftest(std::string* log) {
  topo::Mesh mesh(16, 16);
  const route::XYRouting routing;
  core::AnalysisConfig config;
  config.credit_slack_guard = true;
  core::WorkloadParams wp;
  wp.num_streams = 24;
  wp.priority_levels = 4;
  wp.seed = 7;
  core::StreamSet streams = core::generate_workload(mesh, routing, wp);
  core::adjust_periods_to_bounds(streams);
  core::AdmissionController ctrl(mesh, routing, config);
  AuditInput clean;
  for (const core::MessageStream& s : streams) {
    const auto d = ctrl.request(s.src, s.dst, s.priority, s.period, s.length,
                                s.deadline);
    if (d.admitted) {
      clean.live[d.handle] = spec_of(s);
      clean.queried[d.handle] = ctrl.bound_of(d.handle);
    }
  }
  clean.snapshot_csv = core::streams_to_csv(ctrl.snapshot());
  if (clean.live.size() < 2) {
    *log = "selftest population too small";
    return false;
  }

  const std::int64_t victim = clean.live.rbegin()->first;
  AuditInput perturbed = clean;
  *perturbed.queried[victim] += 1;

  // A dropped handle: the daemon forgot the channel (no SNAPSHOT row,
  // QUERY answers unknown) while the client still holds its ack.
  AuditInput dropped = clean;
  dropped.queried[victim] = std::nullopt;
  core::StreamSet without = ctrl.snapshot();
  for (const core::MessageStream& s : without) {
    if (s.src == clean.live[victim].src) {
      without.remove_stream(s.id);
      break;
    }
  }
  dropped.snapshot_csv = core::streams_to_csv(without);

  const AuditReport r_clean = audit_population(mesh, routing, config, clean);
  const AuditReport r_bound = audit_population(mesh, routing, config, perturbed);
  const AuditReport r_drop = audit_population(mesh, routing, config, dropped);
  const bool ok = r_clean.mismatches.empty() && !r_bound.mismatches.empty() &&
                  !r_drop.mismatches.empty();
  *log = "audit selftest: clean " + std::to_string(r_clean.mismatches.size()) +
         " mismatches (want 0), perturbed bound " +
         std::to_string(r_bound.mismatches.size()) +
         " (want >0), dropped handle " +
         std::to_string(r_drop.mismatches.size()) + " (want >0)";
  return ok;
}

}  // namespace pb
