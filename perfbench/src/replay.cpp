#include "replay.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "core/admission.hpp"
#include "core/delay_bound.hpp"
#include "core/incremental.hpp"
#include "route/dor.hpp"
#include "svc/service.hpp"
#include "topo/mesh.hpp"

namespace pb {

using namespace wormrt;
using svc::Json;

void SpanLog::add(const char* name, std::int64_t id, std::int64_t parent,
                  double start_us, double end_us) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, id, parent, start_us, end_us - start_us});
}

void SpanLog::merge(const SpanLog& other) {
  for (const Span& s : other.spans_) {
    if (spans_.size() >= cap_) {
      ++dropped_;
      continue;
    }
    spans_.push_back(s);
  }
  dropped_ += other.dropped_;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld}}",
                  i == 0 ? "" : ",", s.name, s.start_us, s.dur_us,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent));
    out << buf;
  }
  out << "],\"dropped_spans\":" << dropped_ << "}\n";
  return static_cast<bool>(out);
}

namespace {

/// Times one call and records it as a span; returns the duration (µs).
template <typename F>
double timed(SpanLog* spans, const char* name, std::int64_t parent, F&& f) {
  const std::int64_t id = spans != nullptr ? spans->begin() : 0;
  const double t0 = now_us();
  f();
  const double t1 = now_us();
  if (spans != nullptr) {
    spans->add(name, id, parent, t0, t1);
  }
  return t1 - t0;
}

Json request_json(const ChannelSpec& s) {
  Json rq = Json::object();
  rq.set("verb", "REQUEST");
  rq.set("src", static_cast<std::int64_t>(s.src));
  rq.set("dst", static_cast<std::int64_t>(s.dst));
  rq.set("priority", static_cast<std::int64_t>(s.priority));
  rq.set("period", s.period);
  rq.set("length", s.length);
  rq.set("deadline", s.deadline);
  return rq;
}

/// Slot of each population row (matched by source node).
std::vector<int> population_slots(const ReplayInput& in) {
  std::map<topo::NodeId, int> slot_of_src;
  for (std::size_t k = 0; k < in.slots.size(); ++k) {
    slot_of_src[in.slots[k].src] = static_cast<int>(k);
  }
  std::vector<int> out;
  for (const ChannelSpec& p : in.population) {
    const auto it = slot_of_src.find(p.src);
    out.push_back(it == slot_of_src.end() ? -1 : it->second);
  }
  return out;
}

}  // namespace

ControllerReplay replay_controller(const ReplayInput& in, SpanLog* spans) {
  ControllerReplay out;
  topo::Mesh mesh(in.mesh_side, in.mesh_side);
  const route::XYRouting routing;
  core::AdmissionController ctrl(mesh, routing, in.config);
  std::vector<std::int64_t> handle(in.slots.size(), -1);
  const std::vector<int> pop_slot = population_slots(in);
  core::AdmissionController::Handle next = 0;
  for (std::size_t i = 0; i < in.population.size(); ++i) {
    const ChannelSpec& p = in.population[i];
    ctrl.restore(p.src, p.dst, p.priority, p.period, p.length, p.deadline,
                 next);
    if (pop_slot[i] >= 0) {
      handle[static_cast<std::size_t>(pop_slot[i])] = next;
    }
    ++next;
  }
  for (const Op& op : in.ops) {
    auto& h = handle[static_cast<std::size_t>(op.slot)];
    const std::int64_t root = spans != nullptr ? spans->begin() : 0;
    if (op.kind == Op::Kind::kRemove) {
      if (h < 0) {
        continue;
      }
      out.remove_us.add(timed(spans, "core.admission.remove", root,
                              [&] { ctrl.remove(h); }));
      h = -1;
      continue;
    }
    const ChannelSpec& s = in.slots[static_cast<std::size_t>(op.slot)];
    core::AdmissionController::Decision d;
    out.request_us.add(timed(spans, "core.admission.request", root, [&] {
      d = ctrl.request(s.src, s.dst, s.priority, s.period, s.length,
                       s.deadline);
    }));
    ++out.requests;
    if (!d.admitted) {
      ++out.rejects;
    }
    h = d.admitted ? d.handle : -1;
    out.admitted.push_back(d.admitted);
    out.bounds.push_back(d.bound);
  }
  return out;
}

ServiceReplay replay_service(const ReplayInput& in,
                             const std::string& state_dir, bool fsync,
                             double budget_s, SpanLog* spans) {
  ServiceReplay out;
  std::filesystem::remove_all(state_dir);
  topo::Mesh mesh(in.mesh_side, in.mesh_side);
  const route::XYRouting routing;
  svc::ServiceOptions options;
  options.state_dir = state_dir;
  options.journal_fsync = fsync;
  options.group_commit = true;
  svc::Service service(mesh, routing, in.config, options);
  std::string error;
  if (!service.open_state(&error)) {
    std::fprintf(stderr, "perfbench: service replay: %s\n", error.c_str());
    return out;
  }
  std::vector<std::int64_t> handle(in.slots.size(), -1);
  const std::vector<int> pop_slot = population_slots(in);
  auto handle_of = [](const std::string& reply) -> std::int64_t {
    Json j;
    if (!parse_reply(reply, &j)) {
      return -1;
    }
    const Json* h = j.get("handle");
    const Json* a = j.get("admitted");
    return h != nullptr && a != nullptr && a->as_bool() ? h->as_int() : -1;
  };
  for (std::size_t i = 0; i < in.population.size(); ++i) {
    const std::string reply =
        service.handle_line(request_json(in.population[i]).dump());
    if (pop_slot[i] >= 0) {
      handle[static_cast<std::size_t>(pop_slot[i])] = handle_of(reply);
    }
  }
  obs::Histogram& fsyncs = service.registry().histogram(
      "wormrt_journal_fsync_us", 0.0, 50000.0, 1000, {});
  const std::uint64_t fsyncs_before = fsyncs.count();
  const double fsync_sum_before = fsyncs.sum();
  const double t_start = now_us();
  const double stop_at = t_start + budget_s * 1e6;
  for (const Op& op : in.ops) {
    if (now_us() > stop_at) {
      break;
    }
    auto& h = handle[static_cast<std::size_t>(op.slot)];
    std::string line;
    if (op.kind == Op::Kind::kRemove) {
      if (h < 0) {
        continue;
      }
      Json rm = Json::object();
      rm.set("verb", "REMOVE");
      rm.set("handle", h);
      line = rm.dump();
    } else {
      line = request_json(in.slots[static_cast<std::size_t>(op.slot)]).dump();
    }
    const std::int64_t root = spans != nullptr ? spans->begin() : 0;
    std::string reply;
    out.handle_line_us.add(timed(spans, "svc.service.handle_line", root,
                                 [&] { reply = service.handle_line(line); }));
    std::string parse_error;
    Json parsed_line, parsed_reply;
    out.parse_us.add(timed(spans, "svc.json.parse", root, [&] {
      parsed_line = Json::parse(line, &parse_error);
    }));
    out.parse_us.add(timed(spans, "svc.json.parse", root, [&] {
      parsed_reply = Json::parse(reply, &parse_error);
    }));
    std::string dumped;
    out.dump_us.add(timed(spans, "svc.json.dump", root,
                          [&] { dumped = parsed_reply.dump(); }));
    h = op.kind == Op::Kind::kRemove ? -1 : handle_of(reply);
  }
  // The histogram also holds the set-up's fsyncs; its quantiles are
  // dominated by the window's, which outnumber them.
  if (fsyncs.count() > fsyncs_before) {
    out.fsync_us_p50 = fsyncs.quantile(0.5);
    out.fsync_us_p99 = fsyncs.quantile(0.99);
    out.fsync_busy_frac = (fsyncs.sum() - fsync_sum_before) / (now_us() - t_start);
  }
  std::filesystem::remove_all(state_dir);
  return out;
}

LayerReplay replay_layers(const ReplayInput& in, double budget_s,
                          SpanLog* spans) {
  LayerReplay out;
  topo::Mesh mesh(in.mesh_side, in.mesh_side);
  core::IncrementalAnalyzer engine(mesh, in.config);
  using Handle = core::IncrementalAnalyzer::Handle;
  std::vector<Handle> handle(in.slots.size(), -1);
  const std::vector<int> pop_slot = population_slots(in);
  auto make = [&](const ChannelSpec& s) {
    return core::make_stream_with_order(
        mesh, static_cast<StreamId>(engine.size()), s.src, s.dst, s.priority,
        s.period, s.length, s.deadline, route::kRouteOrderPrimary);
  };
  const route::XYRouting routing;
  core::AdmissionController ctrl(mesh, routing, in.config);
  std::vector<Handle> ctrl_handle(in.slots.size(), -1);
  for (std::size_t i = 0; i < in.population.size(); ++i) {
    const ChannelSpec& p = in.population[i];
    const Handle h = engine.add_stream(make(p)).handle;
    ctrl.restore(p.src, p.dst, p.priority, p.period, p.length, p.deadline,
                 static_cast<Handle>(i));
    if (pop_slot[i] >= 0) {
      handle[static_cast<std::size_t>(pop_slot[i])] = h;
      ctrl_handle[static_cast<std::size_t>(pop_slot[i])] = static_cast<Handle>(i);
    }
  }
  // Decides \p op on the controller; returns its time.
  auto decide = [&](const Op& op) {
    auto& h = ctrl_handle[static_cast<std::size_t>(op.slot)];
    const ChannelSpec& s = in.slots[static_cast<std::size_t>(op.slot)];
    const double t0 = now_us();
    if (op.kind == Op::Kind::kRemove) {
      ctrl.remove(h);
      h = -1;
    } else {
      const auto d = ctrl.request(s.src, s.dst, s.priority, s.period,
                                  s.length, s.deadline);
      h = d.admitted ? d.handle : -1;
    }
    return now_us() - t0;
  };

  // Re-runs the analysis of every stream a mutation recomputed, piece by
  // piece, and counts whose bound moved.
  auto analyse = [&](const std::vector<Handle>& recomputed,
                     const std::map<Handle, Time>& before, std::int64_t root) {
    const core::DelayBoundCalculator calc(engine.streams(), engine, in.config);
    for (const Handle h : recomputed) {
      const StreamId j = engine.id_of(h);
      if (j == kNoStream) {
        continue;
      }
      ++out.recomputes;
      const auto it = before.find(h);
      if (it != before.end()) {
        ++out.dirty_recomputes;
        out.changed += it->second != engine.bound_at(j) ? 1 : 0;
      }
      core::HpSet hp;
      out.hpset_us.add(timed(spans, "core.hpset", root,
                             [&] { hp = engine.hp_set(j); }));
      for (const core::HpElement& e : hp) {
        out.indirect += e.mode == core::BlockMode::kIndirect ? 1 : 0;
      }
      core::DelayBoundResult r;
      out.calu_us.add(timed(spans, "core.cal_u", root,
                            [&] { r = calc.calc_with_hp(j, hp); }));
      out.suppressed += r.suppressed_instances;
      if (r.horizon_used <= 0 || engine.streams()[j].latency > r.horizon_used) {
        continue;  // Cal_U answered without building a diagram
      }
      out.build_us.add(timed(spans, "core.timing_diagram.build", root, [&] {
        (void)calc.build_diagram(j, hp, r.horizon_used, false);
      }));
      core::TimingDiagram relaxed({}, 1, false);
      out.relaxed_build_us.add(
          timed(spans, "core.timing_diagram.build_relaxed", root, [&] {
            relaxed = calc.build_diagram(j, hp, r.horizon_used, true);
          }));
      out.accumulate_us.add(
          timed(spans, "core.timing_diagram.accumulate_free", root, [&] {
            (void)relaxed.accumulate_free(engine.streams()[j].latency);
          }));
    }
  };
  auto bounds_now = [&] {
    std::map<Handle, Time> b;
    for (std::size_t j = 0; j < engine.size(); ++j) {
      b[engine.handle_of(static_cast<StreamId>(j))] =
          engine.bound_at(static_cast<StreamId>(j));
    }
    return b;
  };
  // One mutation, split where the engine allows it from outside: inside a
  // batch, add/remove_stream only update the blocking digraph and the
  // overlap indexes (the bookkeeping, timed here), and end_batch()
  // recomputes the dirty closure, which is then re-run piece by piece.
  auto mutate = [&](const char* name, std::int64_t root, auto&& change) {
    const auto before = bounds_now();
    engine.begin_batch();
    core::IncrementalAnalyzer::Mutation m;
    out.bookkeeping_us += timed(spans, name, root, [&] { m = change(); });
    ++out.mutations;
    out.dirty += static_cast<std::int64_t>(m.dirty.size());
    analyse(engine.end_batch(), before, root);
    return m.handle;
  };

  const double stop_at = now_us() + budget_s * 1e6;
  for (const Op& op : in.ops) {
    if (now_us() > stop_at) {
      break;
    }
    auto& h = handle[static_cast<std::size_t>(op.slot)];
    const std::int64_t root = spans != nullptr ? spans->begin() : 0;
    if (op.kind == Op::Kind::kRemove) {
      if (h < 0) {
        continue;
      }
      out.controller_us += decide(op);
      mutate("core.incremental.remove", root,
             [&] { return *engine.remove_stream(h); });
      h = -1;
      continue;
    }
    // A REQUEST is what the controller does: nothing for a deadline below
    // the no-load latency, else a trial add, kept when the daemon admitted
    // it and rolled back otherwise.
    ++out.decisions;
    out.controller_us += decide(op);
    core::MessageStream candidate =
        make(in.slots[static_cast<std::size_t>(op.slot)]);
    if (candidate.latency > candidate.deadline) {
      continue;
    }
    const Handle added = mutate("core.incremental.add", root, [&] {
      return engine.add_stream(std::move(candidate));
    });
    if (op.admitted) {
      h = added;
      continue;
    }
    mutate("core.incremental.rollback", root,
           [&] { return *engine.remove_stream(added); });
  }
  return out;
}

}  // namespace pb
