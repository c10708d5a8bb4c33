// offline_table5: the paper's Section 5 loop, in-process.  For each
// seeded Table 5 stream set (60 streams, 15 priority levels, 10x10 mesh,
// X-Y routing): raise periods to the computed bounds, run
// Determine-Feasibility, simulate the set flit by flit, and check the
// simulated worst delays against the bounds.

#include <algorithm>
#include <fstream>

#include "core/delay_bound.hpp"
#include "core/feasibility.hpp"
#include "core/workload.hpp"
#include "daemon.hpp"
#include "flitsim/flit_sim.hpp"
#include "replay.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"
#include "workloads.hpp"

namespace pb {

using namespace wormrt;
using svc::Json;

namespace {

constexpr int kSide = 10;
constexpr int kStreams = 60;
constexpr int kLevels = 15;
constexpr int kPool = 6;          ///< stream sets, cycled in seeded order
constexpr int kSetupRepeats = 101;
constexpr int kFixedSets = 4;     ///< sets every run processes (counts)

double self_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

flitsim::FlitSimConfig sim_config(std::uint64_t seed) {
  flitsim::FlitSimConfig fc;
  fc.random_phase = true;
  fc.phase_seed = seed;
  fc.duration = 30000;
  fc.warmup = 2000;
  fc.vc_buffer_depth = 2;
  fc.vc_mode = flitsim::VcMode::kPerStreamLane;
  return fc;
}

struct LoopStats {
  std::int64_t sets = 0, streams = 0;
  /// Host CPU time of each stage, summed over the sets.
  double adjust_us = 0, feasibility_us = 0, sim_us = 0, check_us = 0;
  double loop_us() const { return adjust_us + feasibility_us + sim_us + check_us; }
  Samples verdict_us;  ///< per-stream Cal_U, the per-decision latency
  /// Per pool set (-1 = not simulated yet).
  std::vector<std::int64_t> events = std::vector<std::int64_t>(kPool, -1);
  std::vector<std::int64_t> flits = std::vector<std::int64_t>(kPool, -1);
  std::int64_t fixed_events = 0, fixed_flits = 0;  ///< first kFixedSets
  std::int64_t sim_events = 0;
  double max_worst_over_bound = 0;
};

/// Processes pool sets in \p order, cyclically, until \p until_us and
/// the end of a whole cycle (and at least kFixedSets of them), so every
/// run weighs each set equally; adds failed checks to \p res.
void run_loop(const topo::Mesh& mesh, const std::vector<core::StreamSet>& pool,
              const std::vector<int>& order, std::uint64_t seed,
              double until_us, SpanLog* spans, LoopStats& st, Result& res) {
  const core::AnalysisConfig config;
  while (now_us() < until_us || st.sets < kFixedSets ||
         st.sets % static_cast<std::int64_t>(order.size()) != 0) {
    if (interrupted()) {
      res.fail("interrupted");
      return;
    }
    const auto index =
        static_cast<std::size_t>(order[static_cast<std::size_t>(st.sets) % order.size()]);
    core::StreamSet streams = pool[index];
    const std::int64_t root = spans != nullptr ? spans->begin() : 0;
    auto stage = [&](const char* name, double* total, auto&& f) {
      const std::int64_t id = spans != nullptr ? spans->begin() : 0;
      const double t0 = now_us();
      const double c0 = thread_cpu_us();
      f();
      *total += thread_cpu_us() - c0;
      if (spans != nullptr) {
        spans->add(name, id, root, t0, now_us());
      }
    };
    core::FeasibilityReport report;
    flitsim::FlitSimResult sim;
    stage("core.adjust", &st.adjust_us,
          [&] { core::adjust_periods_to_bounds(streams); });
    stage("core.feasibility", &st.feasibility_us,
          [&] { report = core::determine_feasibility(streams, config); });
    stage("flitsim.run", &st.sim_us, [&] {
      flitsim::FlitSimulator simulator(mesh, streams, sim_config(seed));
      sim = simulator.run();
    });
    std::int64_t unsound = 0;
    stage("offline.check", &st.check_us, [&] {
      for (const core::MessageStream& s : streams) {
        const auto& f = report.streams[static_cast<std::size_t>(s.id)];
        const Time worst = sim.per_stream[static_cast<std::size_t>(s.id)].worst;
        if (f.bound == kNoTime || f.bound + 2 > s.period || worst == kNoTime) {
          continue;  // outside the flit-valid domain U + 2 <= T
        }
        st.max_worst_over_bound =
            std::max(st.max_worst_over_bound,
                     static_cast<double>(worst) / static_cast<double>(f.bound));
        unsound += worst > f.bound ? 1 : 0;
      }
    });
    ++res.attempted;
    if (unsound > 0 || !sim.drained || sim.flits_injected != sim.flits_delivered) {
      res.fail("set " + std::to_string(index) + ": " + std::to_string(unsound) +
               " flit-valid streams exceed their bound, drained=" +
               std::to_string(sim.drained));
    }
    // Simulated counts of a set never change within a run.
    if (st.events[index] >= 0) {
      ++res.attempted;
      if (st.events[index] != sim.events_processed) {
        res.fail("set " + std::to_string(index) + " simulated " +
                 std::to_string(sim.events_processed) + " events, earlier " +
                 std::to_string(st.events[index]));
      }
    }
    st.events[index] = sim.events_processed;
    st.flits[index] = sim.flits_delivered;
    if (st.sets < kFixedSets) {
      st.fixed_events += sim.events_processed;
      st.fixed_flits += sim.flits_delivered;
    }
    st.sim_events += sim.events_processed;
    ++st.sets;
    st.streams += static_cast<std::int64_t>(streams.size());

    // Per-stream verdicts, one Cal_U each in GList order, timed one by
    // one; each must equal Determine-Feasibility's bound.
    const core::BlockingAnalysis blocking(
        streams, core::BlockingOptions{config.same_priority_blocks,
                                       config.ejection_port_overlap,
                                       config.injection_port_overlap});
    const core::DelayBoundCalculator calc(streams, blocking, config);
    for (const StreamId j : streams.by_priority_desc()) {
      const double t0 = now_us();
      const Time bound = calc.calc(j).bound;
      st.verdict_us.add(now_us() - t0);
      ++res.attempted;
      if (bound != report.streams[static_cast<std::size_t>(j)].bound) {
        res.fail("stream " + std::to_string(j) + " of set " +
                 std::to_string(index) + ": Cal_U differs from "
                 "Determine-Feasibility");
      }
    }
  }
}

}  // namespace

Result run_offline_workload(const RunOptions& options) {
  Result res;
  topo::Mesh mesh(kSide, kSide);
  const route::XYRouting routing;

  // Set-up: topology and the run's stream sets, repeated; host CPU time
  // like the loop.
  Samples setup_s;
  std::vector<core::StreamSet> pool;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = thread_cpu_us();
    topo::Mesh fresh(kSide, kSide);
    pool.clear();
    for (int i = 0; i < kPool; ++i) {
      core::WorkloadParams wp;
      wp.num_streams = kStreams;
      wp.priority_levels = kLevels;
      wp.seed = kPopulationSeed * 1000003u + static_cast<std::uint64_t>(i);
      pool.push_back(core::generate_workload(fresh, routing, wp));
    }
    setup_s.add((thread_cpu_us() - t0) / 1e6);
  }

  Json& ctx = res.context;
  ctx.set("mesh", "10x10");
  ctx.set("streams_per_set", static_cast<std::int64_t>(kStreams));
  ctx.set("priority_levels", static_cast<std::int64_t>(kLevels));
  ctx.set("flitsim", "30000 flit times, 2000 warm-up, buffer depth 2, "
                     "per-stream lanes, release phases seeded by --seed");

  const std::vector<int> order = seeded_order(pool.size(), options.seed);
  LoopStats untraced;
  if (options.trace) {
    run_loop(mesh, pool, order, options.seed,
             now_us() + options.seconds / 2 * 1e6, nullptr, untraced, res);
  }
  LoopStats st;
  SpanLog spans;
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  run_loop(mesh, pool, order, options.seed, now_us() + seconds * 1e6,
           options.trace ? &spans : nullptr, st, res);

  Json events = Json::array();
  for (const std::int64_t e : st.events) {
    events.push_back(e);
  }
  ctx.set("events_by_set", std::move(events));
  ctx.set("sets", st.sets);
  const double sets_per_s = static_cast<double>(st.sets) / (st.loop_us() / 1e6);
  ctx.set("sets_per_s", sets_per_s);
  ctx.set("verdict_samples", static_cast<std::int64_t>(st.verdict_us.count()));

  if (!options.trace) {
    res.set("setup_s", setup_s.pct(50), "s");
    res.set("decide_iqm_us", st.verdict_us.iqm(), "us");
    ctx.set("decide_p50_us", st.verdict_us.pct(50));
    res.set("decide_cpu_us", st.loop_us() / static_cast<double>(st.streams), "us");
    res.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
    ctx.set("decide_rps", static_cast<double>(st.streams) / (st.loop_us() / 1e6));
    ctx.set("decide_p99_us", st.verdict_us.pct(99));
    return res;
  }
  const double sets = static_cast<double>(st.sets);
  res.set("offline.sets_per_s", sets_per_s, "1/s");
  res.set("core.adjust.s_per_set", st.adjust_us / 1e6 / sets, "s");
  res.set("core.feasibility.s_per_set", st.feasibility_us / 1e6 / sets, "s");
  res.set("flitsim.s_per_set", st.sim_us / 1e6 / sets, "s");
  res.set("flitsim.events_per_s",
          static_cast<double>(st.sim_events) / (st.sim_us / 1e6), "1/s");
  res.set("flitsim.events_per_set",
          static_cast<double>(st.fixed_events) / kFixedSets, "count");
  res.set("flitsim.flits_delivered_per_set",
          static_cast<double>(st.fixed_flits) / kFixedSets, "count");
  res.set("flitsim.max_worst_over_bound", st.max_worst_over_bound, "ratio");
  res.set("core.cal_u.us_per_call_p50", st.verdict_us.pct(50), "us");
  res.set("core.cal_u.us_per_call_p99", st.verdict_us.pct(99), "us");
  const double untraced_rate =
      static_cast<double>(untraced.sets) / (untraced.loop_us() / 1e6);
  res.set("obs.trace_overhead_pct",
          untraced_rate > 0 ? 100.0 * (untraced_rate - sets_per_s) / untraced_rate : 0,
          "%");
  if (!options.trace_out.empty() && !spans.write(options.trace_out)) {
    res.fail("cannot write spans to " + options.trace_out);
  }
  return res;
}

}  // namespace pb
