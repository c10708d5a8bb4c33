// perfbench — load generator, auditor and layer tracer of the wormrt
// benchmark.  perfbench/run.py builds and drives it; it can also be run
// by hand:
//
//   perfbench run --workload light_percall --seed 1 --seconds 10
//       --trace 0 --wormrtd build/src/svc/wormrtd --root .bench_build/run/manual
//   perfbench selftest
//
// `run` prints one JSON object: correct / attempted / failed, the
// metrics with their units, the run context and any problems found.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "audit.hpp"
#include "daemon.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using wormrt::svc::Json;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --wormrtd PATH --root DIR [--trace-out FILE]\n"
               "       perfbench selftest\n");
  return 2;
}

Json to_json(const pb::Result& r) {
  Json metrics = Json::object();
  for (const auto& [name, value] : r.metrics) {
    Json m = Json::object();
    m.set("value", value.first);
    m.set("unit", value.second);
    metrics.set(name, std::move(m));
  }
  Json problems = Json::array();
  for (const std::string& p : r.problems) {
    problems.push_back(p);
  }
  Json out = Json::object();
  out.set("correct", r.correct);
  out.set("attempted", r.attempted);
  out.set("failed", r.failed);
  out.set("metrics", std::move(metrics));
  out.set("context", r.context);
  out.set("problems", std::move(problems));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  pb::install_interrupt_handlers();
  if (command == "selftest") {
    std::string log;
    const bool ok = pb::audit_selftest(&log);
    std::printf("%s\n%s\n", log.c_str(), ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  if (command != "run") {
    return usage();
  }
  const wormrt::util::Args args(argc - 1, argv + 1);
  pb::RunOptions options;
  options.workload = args.get_string("workload", "");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.seconds = args.get_double("seconds", 10);
  options.trace = args.get_int("trace", 0) != 0;
  options.wormrtd = args.get_string("wormrtd", "");
  options.root = args.get_string("root", "");
  options.trace_out = args.get_string("trace-out", "");
  const bool service = pb::is_service_workload(options.workload);
  if ((!service && options.workload != "offline_table5") ||
      options.root.empty() || (service && options.wormrtd.empty()) ||
      options.seconds <= 0) {
    return usage();
  }
  std::filesystem::create_directories(options.root);

  // Detection proof first: the auditor must catch a perturbed bound and
  // a dropped handle, or no audit of this run means anything.
  std::string selftest_log;
  const double t0 = pb::now_us();
  const bool selftest_ok = pb::audit_selftest(&selftest_log);
  // The self-test is a fixed CPU task, so its time is a speed reading of
  // the machine at the start of the run.
  const double selftest_ms = (pb::now_us() - t0) / 1e3;

  pb::Result result = service ? pb::run_service_workload(options)
                              : pb::run_offline_workload(options);
  ++result.attempted;
  if (!selftest_ok) {
    result.fail(selftest_log);
  }
  if (pb::interrupted()) {
    result.fail("interrupted");
  }
  Json& ctx = result.context;
  ctx.set("workload", options.workload);
  ctx.set("seed", static_cast<std::int64_t>(options.seed));
  ctx.set("seconds", options.seconds);
  ctx.set("trace", options.trace);
  ctx.set("build_type", PERFBENCH_BUILD_TYPE);
  ctx.set("compiler", PERFBENCH_COMPILER);
  ctx.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  ctx.set("audit_selftest", selftest_log);
  ctx.set("audit_selftest_ms", selftest_ms);
  std::printf("%s\n", to_json(result).dump().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
