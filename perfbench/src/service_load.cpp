// Daemon workloads: a real wormrtd process under closed-loop churn from
// this process's client threads, over Unix sockets.  Each connection
// owns a slice of the channel population and cycles it: tear a channel
// down, request it again, wait for the decision, repeat.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/admission.hpp"
#include "core/feasibility.hpp"
#include "core/stream_io.hpp"
#include "core/workload.hpp"
#include "daemon.hpp"
#include "replay.hpp"
#include "route/dor.hpp"
#include "svc/server.hpp"
#include "topo/mesh.hpp"
#include "workloads.hpp"

namespace pb {

using namespace wormrt;
using svc::Json;

namespace {

struct Shape {
  const char* name;
  int streams;       ///< channels requested (the population asked for)
  int connections;   ///< client connections, one thread each
  int workers;       ///< wormrtd --workers
  int setups;        ///< set-ups per run (median reported)
};

constexpr Shape kShapes[] = {
    {"light_percall", 20, 4, 4, 21},
    {"dense_percall", 140, 1, 4, 5},
};

constexpr int kMeshSide = 16;
/// Every kProbeEvery-th requested channel is a probe: its deadline is its
/// no-load latency, so the request passes the controller's
/// latency > deadline short-circuit, the trial add computes its bound and
/// re-analyses the streams it can delay, and the gate rejects it because
/// an established blocker pushes the bound past the latency.  The trial
/// is then rolled back: the daemon's whole reject path.
constexpr int kProbeEvery = 8;
constexpr int kPriorityLevels = 4;
constexpr int kClientTimeoutMs = 30000;

/// The analysis config wormrtd runs with the flags below.
core::AnalysisConfig daemon_config() {
  core::AnalysisConfig config;
  config.num_threads = 1;
  config.credit_slack_guard = true;
  config.vc_buffer_depth = 2;
  return config;
}

std::vector<std::string> daemon_flags(const Shape& shape) {
  return {"--socket", "p.sock", "--state-dir", "p-state",
          "--mesh", std::to_string(kMeshSide) + "x" + std::to_string(kMeshSide),
          "--threads", "1", "--workers", std::to_string(shape.workers),
          "--event-threads", "2", "--compact-every", "256",
          "--sample-interval-ms", "1000", "--no-journal-fsync"};
}

Json verb(const char* name) {
  Json j = Json::object();
  j.set("verb", name);
  return j;
}

Json request_json(const ChannelSpec& s) {
  Json rq = verb("REQUEST");
  rq.set("src", static_cast<std::int64_t>(s.src));
  rq.set("dst", static_cast<std::int64_t>(s.dst));
  rq.set("priority", static_cast<std::int64_t>(s.priority));
  rq.set("period", s.period);
  rq.set("length", s.length);
  rq.set("deadline", s.deadline);
  return rq;
}

Json remove_json(std::int64_t handle) {
  Json rm = verb("REMOVE");
  rm.set("handle", handle);
  return rm;
}

bool rpc(svc::Client& client, const Json& request, Json* reply,
         std::string* error) {
  std::string line;
  if (!client.call(request.dump(), &line, error)) {
    return false;
  }
  if (!parse_reply(line, reply)) {
    *error = "unparsable reply: " + line;
    return false;
  }
  return true;
}

bool connect(svc::Client& client, const std::string& socket,
             std::string* error) {
  client.set_timeout_ms(kClientTimeoutMs);
  return client.connect_unix(socket, error);
}

bool scrape(svc::Client& client, Prom* out, std::string* error) {
  Json reply;
  if (!rpc(client, verb("METRICS"), &reply, error)) {
    return false;
  }
  const Json* text = reply.get("prometheus");
  if (!reply_ok(reply) || text == nullptr || !text->is_string()) {
    *error = "METRICS failed";
    return false;
  }
  *out = Prom::parse(text->as_string());
  return true;
}

bool snapshot(svc::Client& client, std::string* csv, std::string* error) {
  Json reply;
  if (!rpc(client, verb("SNAPSHOT"), &reply, error)) {
    return false;
  }
  const Json* c = reply.get("csv");
  if (!reply_ok(reply) || c == nullptr || !c->is_string()) {
    *error = "SNAPSHOT failed";
    return false;
  }
  *csv = c->as_string();
  return true;
}

/// A daemon with the population established.
struct Deployment {
  std::unique_ptr<Daemon> daemon;
  svc::Client control;               ///< setup, audit and scrape connection
  std::vector<std::int64_t> handle;  ///< per slot after setup (-1 = rejected)

  ~Deployment() {
    control.close();
    if (daemon) {
      daemon->stop();
    }
  }
};

/// Starts the daemon in a fresh \p dir and establishes every slot once,
/// in \p order, on one connection.  Returns the set-up time (exec of
/// the daemon to population established), or a negative value on
/// failure.
double deploy(const RunOptions& options, const Shape& shape,
              const std::vector<ChannelSpec>& slots,
              const std::vector<int>& order, const std::string& dir,
              Deployment* d, std::string* error) {
  if (std::filesystem::exists(dir)) {
    *error = dir + " is left over from an earlier run; refusing to reuse it";
    return -1;
  }
  std::filesystem::create_directories(dir);
  if (::chdir(dir.c_str()) != 0) {
    *error = "cannot enter " + dir;
    return -1;
  }
  const double t0 = now_us();
  d->daemon = std::make_unique<Daemon>(options.wormrtd, daemon_flags(shape),
                                       dir, dir + "/wormrtd.log");
  if (!d->daemon->start(60, error) || !connect(d->control, "p.sock", error)) {
    return -1;
  }
  d->handle.assign(slots.size(), -1);
  for (const int slot : order) {
    const auto k = static_cast<std::size_t>(slot);
    Json reply;
    if (!rpc(d->control, request_json(slots[k]), &reply, error) ||
        !reply_ok(reply)) {
      *error = "set-up REQUEST failed: " + *error;
      return -1;
    }
    const Json* a = reply.get("admitted");
    const Json* h = reply.get("handle");
    if (a != nullptr && a->as_bool() && h != nullptr) {
      d->handle[k] = h->as_int();
    }
  }
  return (now_us() - t0) / 1e6;
}

/// One client connection and its slice of the slots.
struct Conn {
  svc::Client client;
  std::vector<int> slots;
  std::vector<std::int64_t> handle;  ///< per local slot
  std::size_t next = 0;
};

struct WindowStats {
  Samples decide_us, remove_us;
  std::int64_t requests = 0, removes = 0, lines = 0;
  std::vector<Op> ops;
  std::int64_t failures = 0;
  std::vector<std::string> problems;  ///< the first few failures
  SpanLog spans;
  double wall_s = 0;

  void problem(const std::string& what) {
    ++failures;
    keep(what);
  }
  void keep(const std::string& what) {
    if (problems.size() < 20) {
      problems.push_back(what);
    }
  }
  void merge(const WindowStats& o) {
    decide_us.append(o.decide_us);
    remove_us.append(o.remove_us);
    requests += o.requests;
    removes += o.removes;
    lines += o.lines;
    ops.insert(ops.end(), o.ops.begin(), o.ops.end());
    failures += o.failures;
    for (const std::string& p : o.problems) {
      keep(p);
    }
    spans.merge(o.spans);
  }
};

/// Reads a REQUEST reply into \p op; false when it is not a decision.
bool read_decision(const Json& reply, Op* op, std::int64_t* handle) {
  if (!reply_ok(reply)) {
    return false;
  }
  const Json* a = reply.get("admitted");
  const Json* h = reply.get("handle");
  const Json* b = reply.get("bound");
  if (a == nullptr) {
    return false;
  }
  op->admitted = a->as_bool();
  op->bound = b != nullptr ? b->as_int() : -1;
  *handle = op->admitted && h != nullptr ? h->as_int() : -1;
  return true;
}

/// One call per round trip.  The window ends at a whole cycle of the
/// connection's slots, so every run decides each channel equally often.
void per_call_loop(Conn& c, const std::vector<ChannelSpec>& slots,
                   double until_us, bool trace, WindowStats& ws) {
  std::string line, error;
  while ((now_us() < until_us || c.next != 0) && !interrupted()) {
    const std::size_t local = c.next;
    c.next = (c.next + 1) % c.slots.size();
    const int slot = c.slots[local];
    if (c.handle[local] >= 0) {
      const std::string rm = remove_json(c.handle[local]).dump();
      const double t0 = now_us();
      if (!c.client.call(rm, &line, &error)) {
        ws.problem("REMOVE transport: " + error);
        return;
      }
      const double t1 = now_us();
      ++ws.removes;
      ++ws.lines;
      ws.remove_us.add(t1 - t0);
      ws.ops.push_back({Op::Kind::kRemove, slot, t0, false, -1});
      if (trace) {
        ws.spans.add("client.remove", ws.spans.begin(), 0, t0, t1);
      }
      Json reply;
      if (!parse_reply(line, &reply) || !reply_ok(reply)) {
        ws.problem("REMOVE refused: " + line);
      }
      c.handle[local] = -1;
    }
    const std::string rq = request_json(slots[static_cast<std::size_t>(slot)]).dump();
    const double t0 = now_us();
    if (!c.client.call(rq, &line, &error)) {
      ws.problem("REQUEST transport: " + error);
      return;
    }
    const double t1 = now_us();
    ++ws.requests;
    ++ws.lines;
    ws.decide_us.add(t1 - t0);
    if (trace) {
      ws.spans.add("client.request", ws.spans.begin(), 0, t0, t1);
    }
    Op op{Op::Kind::kRequest, slot, t0, false, -1};
    Json reply;
    std::int64_t handle = -1;
    if (!parse_reply(line, &reply) || !read_decision(reply, &op, &handle)) {
      ws.problem("REQUEST refused: " + line);
    }
    c.handle[local] = handle;
    ws.ops.push_back(op);
  }
}

/// Runs every connection's churn loop for \p seconds.
WindowStats run_window(std::vector<std::unique_ptr<Conn>>& conns,
                       const std::vector<ChannelSpec>& slots, double seconds,
                       bool trace) {
  std::vector<WindowStats> per(conns.size());
  std::vector<std::thread> threads;
  const double t0 = now_us();
  const double until = t0 + seconds * 1e6;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back(
        [&, i] { per_call_loop(*conns[i], slots, until, trace, per[i]); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  WindowStats all;
  all.wall_s = (now_us() - t0) / 1e6;
  for (const WindowStats& w : per) {
    all.merge(w);
  }
  std::stable_sort(all.ops.begin(), all.ops.end(),
                   [](const Op& a, const Op& b) { return a.t_send_us < b.t_send_us; });
  return all;
}

/// The wire + dispatch floor: QUERY round trips (a cache read: no
/// analysis, no journal) from every connection at once.
Samples query_floor(std::vector<std::unique_ptr<Conn>>& conns, double seconds) {
  std::vector<Samples> per(conns.size());
  std::vector<std::thread> threads;
  const double until = now_us() + seconds * 1e6;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] {
      Conn& c = *conns[i];
      const auto live = std::find_if(c.handle.begin(), c.handle.end(),
                                     [](std::int64_t h) { return h >= 0; });
      Json q = verb("QUERY");
      q.set("handle", live == c.handle.end() ? std::int64_t{0} : *live);
      const std::string line = q.dump();
      std::string reply, error;
      while (now_us() < until && !interrupted()) {
        const double t0 = now_us();
        if (!c.client.call(line, &reply, &error)) {
          return;
        }
        per[i].add(now_us() - t0);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  Samples all;
  for (const Samples& s : per) {
    all.append(s);
  }
  return all;
}

/// User + system CPU time of a process (all its threads), in µs.
double process_cpu_us(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), {});
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) {
    return 0;
  }
  std::istringstream fields(text.substr(close + 2));
  std::string f;
  double utime = 0, stime = 0;
  for (int i = 3; fields >> f; ++i) {  // field 3 follows the comm
    if (i == 14) {
      utime = std::stod(f);
    } else if (i == 15) {
      stime = std::stod(f);
      break;
    }
  }
  return (utime + stime) * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// (steal, total) jiffies of all CPUs since boot: the share the
/// hypervisor gave to other guests is recorded with every run.
std::pair<double, double> cpu_steal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v[8] = {0};
  double total = 0;
  for (double& x : v) {
    in >> x;
    total += x;
  }
  return {v[7], total};
}

/// Handles the connections hold, with what they asked for.
std::map<std::int64_t, ChannelSpec> live_handles(
    const std::vector<std::unique_ptr<Conn>>& conns,
    const std::vector<ChannelSpec>& slots) {
  std::map<std::int64_t, ChannelSpec> live;
  for (const auto& c : conns) {
    for (std::size_t k = 0; k < c->slots.size(); ++k) {
      if (c->handle[k] >= 0) {
        live[c->handle[k]] = slots[static_cast<std::size_t>(c->slots[k])];
      }
    }
  }
  return live;
}

/// SNAPSHOT + QUERY of every live handle, audited against a from-scratch
/// Determine-Feasibility.  Adds its checks to \p res.
void audit_daemon(svc::Client& control, const topo::Topology& mesh,
                  const std::map<std::int64_t, ChannelSpec>& live,
                  Result& res) {
  const route::XYRouting routing;
  AuditInput in;
  in.live = live;
  std::string error;
  ++res.attempted;
  if (!snapshot(control, &in.snapshot_csv, &error)) {
    res.fail("audit SNAPSHOT: " + error);
    return;
  }
  for (const auto& [handle, spec] : live) {
    Json q = verb("QUERY");
    q.set("handle", handle);
    Json reply;
    if (!rpc(control, q, &reply, &error)) {
      res.fail("audit QUERY transport: " + error);
      return;
    }
    const Json* b = reply.get("bound");
    in.queried[handle] = reply_ok(reply) && b != nullptr
                             ? std::optional<Time>(b->as_int())
                             : std::nullopt;
  }
  const AuditReport report =
      audit_population(mesh, routing, daemon_config(), in);
  res.attempted += report.checks;
  for (const std::string& m : report.mismatches) {
    res.fail("audit: " + m);
  }
}

std::vector<ChannelSpec> population_of(const std::string& csv,
                                       const topo::Topology& mesh) {
  const route::XYRouting routing;
  std::vector<ChannelSpec> out;
  const core::StreamParseResult parsed = core::streams_from_csv(csv, mesh, routing);
  for (const core::MessageStream& s : parsed.streams) {
    out.push_back(spec_of(s));
  }
  return out;
}

Json flags_json(const std::vector<std::string>& flags) {
  std::string joined = "wormrtd";
  for (const std::string& f : flags) {
    joined += " " + f;
  }
  return Json(joined);
}

/// Per-layer metrics of the service side, from the METRICS deltas over
/// the traced window.
void service_layers(const Prom& before, const Prom& after,
                    const WindowStats& w, int workers, Result& res) {
  const double wall_us = w.wall_s * 1e6;
  auto delta = [&](const std::string& series) {
    return after.value(series) - before.value(series);
  };
  const double req_p50 = delta_quantile(before, after, "wormrt_admission_latency_us", 0.5);
  const double req_p99 = delta_quantile(before, after, "wormrt_admission_latency_us", 0.99);
  res.set("svc.service.request_us_p50", req_p50, "us");
  const double req_count = delta("wormrt_admission_latency_us_count");
  res.set("svc.service.request_us_mean",
          req_count > 0 ? delta("wormrt_admission_latency_us_sum") / req_count : 0,
          "us");
  res.set("svc.service.request_us_p99", req_p99, "us");
  res.set("svc.server.overhead_us_p50", w.decide_us.pct(50) - req_p50, "us");
  res.set("svc.server.epoll_events_per_call",
          w.lines > 0 ? delta("wormrt_server_epoll_events_sum") / static_cast<double>(w.lines) : 0,
          "count");
  res.set("svc.server.pool_busy_frac",
          delta("wormrt_admission_latency_us_sum") / (workers * wall_us), "ratio");
  res.set("svc.server.sheds",
          after.family_sum("wormrt_server_sheds_total") -
              before.family_sum("wormrt_server_sheds_total"),
          "count");
  const double appends = delta("wormrt_journal_appends_total");
  const double commits = delta("wormrt_journal_group_commits_total");
  res.set("svc.journal.appends_per_commit", commits > 0 ? appends / commits : 0,
          "count");
  res.set("svc.journal.bytes_per_decision",
          w.requests > 0 ? delta("wormrt_journal_bytes_written_total") /
                               static_cast<double>(w.requests)
                         : 0,
          "B");
  res.set("svc.journal.snapshots_per_1k_appends",
          appends > 0 ? 1000.0 * delta("wormrt_journal_snapshots_total") / appends : 0,
          "count");
}

/// Per-layer metrics of the analysis side, from the in-process replays.
void core_layers(const ControllerReplay& ctrl, const LayerReplay& lay,
                 Result& res) {
  res.set("core.admission.request_us_p50", ctrl.request_us.pct(50), "us");
  res.set("core.admission.request_us_p99", ctrl.request_us.pct(99), "us");
  res.set("core.admission.remove_us_p50", ctrl.remove_us.pct(50), "us");
  res.set("core.admission.reject_ratio",
          ctrl.requests > 0 ? static_cast<double>(ctrl.rejects) /
                                  static_cast<double>(ctrl.requests)
                            : 0,
          "ratio");
  const auto per = [](double num, std::int64_t den) {
    return den > 0 ? num / static_cast<double>(den) : 0.0;
  };
  res.set("core.incremental.dirty_per_mutation",
          per(static_cast<double>(lay.dirty), lay.mutations), "count");
  res.set("core.incremental.changed_bound_ratio",
          per(static_cast<double>(lay.changed), lay.dirty_recomputes), "ratio");
  res.set("core.hpset.us_per_call", lay.hpset_us.mean(), "us");
  res.set("core.hpset.indirect_per_set",
          per(static_cast<double>(lay.indirect),
              static_cast<std::int64_t>(lay.hpset_us.count())),
          "count");
  res.set("core.cal_u.calls_per_decision",
          per(static_cast<double>(lay.recomputes), lay.decisions), "count");
  res.set("core.cal_u.us_per_call_p50", lay.calu_us.pct(50), "us");
  res.set("core.cal_u.us_per_call_p99", lay.calu_us.pct(99), "us");
  res.set("core.timing_diagram.build_us_per_call", lay.build_us.mean(), "us");
  res.set("core.timing_diagram.relax_us_per_call",
          lay.relaxed_build_us.mean() - lay.build_us.mean(), "us");
  res.set("core.timing_diagram.accumulate_free_us_per_call",
          lay.accumulate_us.mean(), "us");
  res.set("core.timing_diagram.suppressed_per_call",
          per(static_cast<double>(lay.suppressed),
              static_cast<std::int64_t>(lay.calu_us.count())),
          "count");
}

}  // namespace

bool is_service_workload(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) {
      return true;
    }
  }
  return false;
}

Result run_service_workload(const RunOptions& options) {
  Result res;
  const Shape* found = nullptr;
  for (const Shape& s : kShapes) {
    if (options.workload == s.name) {
      found = &s;
    }
  }
  const Shape& shape = *found;
  const bool dense = options.workload == "dense_percall";

  topo::Mesh mesh(kMeshSide, kMeshSide);
  const route::XYRouting routing;
  core::WorkloadParams wp;
  wp.num_streams = shape.streams;
  wp.priority_levels = kPriorityLevels;
  wp.seed = kPopulationSeed;
  core::StreamSet streams = core::generate_workload(mesh, routing, wp);
  const core::AdjustResult adjusted = core::adjust_periods_to_bounds(streams);
  // Every channel gets the credit slack (U + 2 <= T) the daemon's
  // admission guard asks for.  The bound is not monotone in the periods
  // of the blockers, so a few channels still break an established
  // guarantee; an in-process admission pass in set-up order drops them.
  // The probes come last, each checked to be rejected by the full
  // population (one that is not has no blocker and is dropped too).
  // What remains is established in full by every set-up.  While it
  // churns, the probes are most of the rejections; bounds depend on the
  // engine's stream order, so a re-requested channel is rejected now and
  // then too (README.md, "Inputs and seeds").
  std::vector<ChannelSpec> slots, probe_slots;
  std::int64_t dropped = 0;
  core::AdmissionController trial(mesh, routing, daemon_config());
  for (const bool probe : {false, true}) {
    for (const core::MessageStream& s : streams) {
      if ((s.id % kProbeEvery == kProbeEvery - 1) != probe) {
        continue;
      }
      ChannelSpec spec = spec_of(s);
      spec.period = std::max(
          spec.period, adjusted.bounds[static_cast<std::size_t>(s.id)] + 2);
      spec.deadline = probe ? s.latency : spec.period;
      const auto decision = trial.request(spec.src, spec.dst, spec.priority,
                                          spec.period, spec.length,
                                          spec.deadline);
      if (decision.admitted == probe) {
        ++dropped;
        if (decision.admitted) {
          trial.remove(decision.handle);
        }
      } else {
        (probe ? probe_slots : slots).push_back(spec);
      }
    }
  }
  const auto probes = static_cast<std::int64_t>(probe_slots.size());
  slots.insert(slots.end(), probe_slots.begin(), probe_slots.end());
  // Set-up establishes the channels in population order; the seed orders
  // the churn.
  std::vector<int> setup_order(slots.size());
  for (std::size_t k = 0; k < slots.size(); ++k) {
    setup_order[k] = static_cast<int>(k);
  }
  const std::vector<int> order = seeded_order(slots.size(), options.seed);

  Json& ctx = res.context;
  ctx.set("transport", "Unix socket on loopback");
  ctx.set("load", "closed loop: each connection waits for its reply");
  ctx.set("connections", static_cast<std::int64_t>(shape.connections));
  ctx.set("streams_requested", static_cast<std::int64_t>(shape.streams));
  ctx.set("probes", probes);
  ctx.set("dropped_unadmissible", dropped);
  ctx.set("mesh", std::to_string(kMeshSide) + "x" + std::to_string(kMeshSide));
  ctx.set("priority_levels", static_cast<std::int64_t>(kPriorityLevels));
  ctx.set("wormrtd_flags", flags_json(daemon_flags(shape)));
  ctx.set("journal", "written per group commit, group commit on, no fsync "
                     "(see README: shared-disk fsync latency is not steady)");

  // Set-up, repeated; the last deployment carries the measured window.
  // All of them run before it: set-ups after it ran about 40% slower on
  // light_percall, and a mix of the two put the median between two modes.
  Samples setup_s;
  std::unique_ptr<Deployment> d;
  const int repeats = options.trace ? 1 : shape.setups;
  for (int r = 0; r < repeats; ++r) {
    d.reset();
    std::filesystem::remove_all(options.root + "/setup-" + std::to_string(r - 1));
    d = std::make_unique<Deployment>();
    std::string error;
    const double s = deploy(options, shape, slots, setup_order,
                            options.root + "/setup-" + std::to_string(r),
                            d.get(), &error);
    if (s < 0) {
      res.fail("set-up: " + error);
      return res;
    }
    setup_s.add(s);
  }
  std::int64_t established = 0;
  for (const std::int64_t h : d->handle) {
    established += h >= 0 ? 1 : 0;
  }
  ctx.set("streams_established", established);

  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < shape.connections; ++i) {
    auto c = std::make_unique<Conn>();
    std::string error;
    if (!connect(c->client, "p.sock", &error)) {
      res.fail("connect: " + error);
      return res;
    }
    // Connection i churns every connections-th slot of the seeded order.
    for (std::size_t p = static_cast<std::size_t>(i); p < order.size();
         p += static_cast<std::size_t>(shape.connections)) {
      c->slots.push_back(order[p]);
      c->handle.push_back(d->handle[static_cast<std::size_t>(order[p])]);
    }
    conns.push_back(std::move(c));
  }

  std::string error;
  WindowStats untraced;
  if (options.trace) {
    untraced = run_window(conns, slots, options.seconds / 2, false);
  }
  // The population the measured window starts from, in engine order.
  std::string start_csv;
  Prom before, after;
  if (!snapshot(d->control, &start_csv, &error) ||
      !scrape(d->control, &before, &error)) {
    res.fail("pre-window: " + error);
    return res;
  }
  const double cpu0 = process_cpu_us(d->daemon->pid());
  const auto steal0 = cpu_steal();
  const WindowStats w = run_window(
      conns, slots, options.trace ? options.seconds / 2 : options.seconds,
      options.trace);
  const double daemon_cpu_us = process_cpu_us(d->daemon->pid()) - cpu0;
  const auto steal1 = cpu_steal();
  const double steal_pct =
      100.0 * (steal1.first - steal0.first) / (steal1.second - steal0.second);
  // The control connection idled through the window and may have met
  // the daemon's idle timeout: open a fresh one.
  d->control.close();
  if (!connect(d->control, "p.sock", &error) ||
      !scrape(d->control, &after, &error)) {
    res.fail("post-window: " + error);
    return res;
  }

  // Failures under load: transport errors, ok:false, sheds.
  res.attempted += w.requests + w.removes;
  for (const std::string& p : w.problems) {
    res.fail(p);
  }
  // Only the first failures keep a message; every one counts.
  res.failed += w.failures - static_cast<std::int64_t>(w.problems.size());
  const double sheds = after.family_sum("wormrt_server_sheds_total") -
                       before.family_sum("wormrt_server_sheds_total");
  for (int i = 0; i < static_cast<int>(sheds); ++i) {
    res.fail("shed during the window");
  }
  if (w.requests == 0) {
    res.fail("no decisions in the measured window");
  }

  // Correctness audit of the final population.
  const auto live = live_handles(conns, slots);
  audit_daemon(d->control, mesh, live, res);
  const double peak_rss = d->daemon->peak_rss_mb();
  const Samples floor_us =
      options.trace && !dense ? query_floor(conns, 0.5) : Samples();

  // Single connection: every decision must equal the in-process replay's.
  ReplayInput in;
  in.mesh_side = kMeshSide;
  in.config = daemon_config();
  in.population = population_of(start_csv, mesh);
  in.slots = slots;
  in.ops = w.ops;
  SpanLog spans;
  ControllerReplay ctrl;
  if (dense || options.trace) {
    ctrl = replay_controller(in, options.trace ? &spans : nullptr);
  }
  if (dense) {
    std::size_t k = 0;
    for (const Op& op : w.ops) {
      if (op.kind != Op::Kind::kRequest) {
        continue;
      }
      ++res.attempted;
      if (k >= ctrl.admitted.size() || ctrl.admitted[k] != op.admitted ||
          ctrl.bounds[k] != op.bound) {
        res.fail("decision " + std::to_string(k) +
                 " differs from the in-process replay");
      }
      ++k;
    }
  }

  for (auto& c : conns) {
    c->client.close();
  }
  d.reset();  // stops and reaps the daemon

  if (!options.trace) {
    res.set("setup_s", setup_s.pct(50), "s");
    res.set("decide_iqm_us", w.decide_us.iqm(), "us");
    res.set("decide_cpu_us", daemon_cpu_us / static_cast<double>(w.requests), "us");
    res.set("peak_rss_mb", peak_rss, "MiB");
    ctx.set("decide_samples", static_cast<std::int64_t>(w.decide_us.count()));
    ctx.set("decide_rejects",
            std::count_if(w.ops.begin(), w.ops.end(), [](const Op& op) {
              return op.kind == Op::Kind::kRequest && !op.admitted;
            }));
    ctx.set("decide_rps", static_cast<double>(w.requests) / w.wall_s);
    ctx.set("decide_p50_us", w.decide_us.pct(50));
    ctx.set("decide_p99_us", w.decide_us.pct(99));
    ctx.set("steal_pct", steal_pct);
    ctx.set("remove_p50_us", w.remove_us.pct(50));
    ctx.set("remove_p99_us", w.remove_us.pct(99));
    ctx.set("remove_samples", static_cast<std::int64_t>(w.remove_us.count()));
    return res;
  }

  // Traced run: the per-layer view of the same load.
  spans.merge(w.spans);
  const ServiceReplay svc_replay =
      replay_service(in, options.root + "/replay-state", false, 2.0, &spans);
  const ServiceReplay fsync_replay =
      replay_service(in, options.root + "/replay-fsync", true, 1.0, nullptr);
  const LayerReplay layers = replay_layers(in, 3.0, &spans);
  core_layers(ctrl, layers, res);
  service_layers(before, after, w, shape.workers, res);
  res.set("svc.client.remove_us_p50", w.remove_us.pct(50), "us");
  res.set("svc.client.remove_us_p99", w.remove_us.pct(99), "us");
  res.set("svc.json.parse_us_p50", svc_replay.parse_us.pct(50), "us");
  res.set("svc.json.dump_us_p50", svc_replay.dump_us.pct(50), "us");
  res.set("svc.service.handle_line_us_p50", svc_replay.handle_line_us.pct(50), "us");
  res.set("svc.journal.fsync_us_p50", fsync_replay.fsync_us_p50, "us");
  res.set("svc.journal.fsync_us_p99", fsync_replay.fsync_us_p99, "us");
  res.set("svc.journal.fsync_busy_frac", fsync_replay.fsync_busy_frac, "ratio");
  const double rps_untraced =
      static_cast<double>(untraced.requests) / untraced.wall_s;
  const double rps_traced = static_cast<double>(w.requests) / w.wall_s;
  res.set("obs.trace_overhead_pct",
          rps_untraced > 0 ? 100.0 * (rps_untraced - rps_traced) / rps_untraced : 0,
          "%");

  // Reconciliation: the analysis layers must account for the
  // controller's decision time (dense), and the in-process line cost +
  // the wire must account for the client's latency (light).
  if (dense) {
    const double ctrl_us = layers.controller_us;
    const double layer_us = layers.bookkeeping_us + layers.hpset_us.sum() +
                            layers.relaxed_build_us.sum() +
                            layers.accumulate_us.sum();
    const double ratio = ctrl_us > 0 ? layer_us / ctrl_us : 0;
    res.set("recon.layers_over_admission", ratio, "ratio");
    ++res.attempted;
    if (ratio < 0.75 || ratio > 1.33) {
      res.fail("reconciliation: analysis layers sum to " +
               std::to_string(ratio) + "x the admission time (want 0.75-1.33)");
    }
  }
  if (!dense) {
    // Client latency = the in-process cost of the line (parse, decide,
    // journal commit, reply) + the wire, dispatch and lock floor (a
    // QUERY round trip under the same concurrency).
    const double parts = svc_replay.handle_line_us.pct(50) + floor_us.pct(50);
    const double ratio = parts / w.decide_us.pct(50);
    res.set("svc.server.floor_us_p50", floor_us.pct(50), "us");
    res.set("recon.parts_over_decide", ratio, "ratio");
    ++res.attempted;
    if (ratio < 0.5 || ratio > 1.5) {
      res.fail("reconciliation: handle_line + wire floor is " +
               std::to_string(ratio) + "x the client p50 (want 0.5-1.5)");
    }
  }
  if (!options.trace_out.empty() && !spans.write(options.trace_out)) {
    res.fail("cannot write spans to " + options.trace_out);
  }
  return res;
}

}  // namespace pb
