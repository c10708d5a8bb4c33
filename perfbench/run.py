#!/usr/bin/env python3
"""Benchmark entry point: builds wormrtd and the perfbench tool from this
checkout, runs one workload, and prints the result.

    python3 perfbench/run.py --workload light_percall --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout.  Everything it writes stays under the
build directory (``$CARGO_TARGET_DIR`` when set, else ``.bench_build``):
the CMake build, one private scratch dir per run (daemon state dirs and
sockets, removed at the end), the full result of each run under
``results/`` and the traced run's spans under ``traces/``.

The last line of standard output is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the run context.  The exit code is 0 only when every
check of the run passed.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
PR_SET_PDEATHSIG = 1


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configures (once) and builds wormrtd + perfbench; returns the
    perfbench and wormrtd paths, or None when the build fails."""
    cmake_dir = out / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        rc = subprocess.call(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(
        ["cmake", "--build", str(cmake_dir), "--target", "perfbench",
         "wormrtd", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        return None
    return cmake_dir / "perfbench", cmake_dir / "wormrt" / "svc" / "wormrtd"


def build_type(out):
    cache = out / "cmake" / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def sweep_leftovers(runs):
    """Reports and clears what an earlier run left behind: live daemons
    (from the pid files perfbench writes) and sockets.  Nothing found
    there is ever reused."""
    found = []
    for old in sorted(runs.glob("*")) if runs.exists() else []:
        owner = old.name.split("-")[0]
        try:
            if b"run.py" in Path(f"/proc/{owner}/cmdline").read_bytes():
                continue  # a run still in progress, not a leftover
        except OSError:
            pass
        for pid_file in old.rglob("*.pid"):
            try:
                pid = int(pid_file.read_text().strip())
                cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
                cwd = os.readlink(f"/proc/{pid}/cwd")
            except (OSError, ValueError):
                continue
            # Only a wormrtd still running inside that run's dir is ours.
            if b"wormrtd" in cmdline and cwd.startswith(str(old)):
                found.append(f"daemon pid {pid} ({pid_file})")
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        for sock in old.rglob("*.sock"):
            found.append(f"socket {sock}")
        shutil.rmtree(old, ignore_errors=True)
    for item in found:
        log(f"leftover from an earlier run, removed: {item}")
    return found


def source_digest():
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for p in sorted((ROOT / base).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout; see source_digest)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fs_type(path):
    try:
        return subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def die_with_parent():
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def run_tool(cmd, timeout_s):
    """Runs perfbench in its own process group (its daemons join it), so
    every process it started is killed and reaped on any exit path."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, preexec_fn=die_with_parent)

    def on_signal(signum, _frame):
        raise KeyboardInterrupt(signum)

    old = {s: signal.signal(s, on_signal) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = proc.communicate(timeout=timeout_s)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {timeout_s:.0f}s; killed")
        return None, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
            time.sleep(0.2)
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
        # Daemons orphaned by a killed tool are reaped by init; wait until
        # the whole group is gone.
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except OSError:
                break
            time.sleep(0.05)
        for s, handler in old.items():
            signal.signal(s, handler)


def ledger_check(out, result, problems):
    """offline_table5: simulated event counts of a seed never change."""
    ctx = result["context"]
    if ctx.get("workload") != "offline_table5":
        return
    path = out / "ledger" / f"offline_table5-seed{ctx['seed']}.json"
    events = ctx.get("events_by_set", [])
    if path.exists():
        known = json.loads(path.read_text())
        for i, (a, b) in enumerate(zip(known, events)):
            if a >= 0 and b >= 0 and a != b:
                problems.append(f"set {i} simulated {b} events, an earlier "
                                f"run of this seed simulated {a}")
        events = [b if b >= 0 else a for a, b in zip(known, events)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(events))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="only prove that the audit catches a perturbed "
                         "bound and a dropped handle")
    args = ap.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    if not args.selftest and args.workload not in names:
        ap.error(f"--workload must be one of {names}")

    started = time.monotonic()
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    tools = build(out)
    if tools is None:
        log("build failed")
        return 2
    perfbench, wormrtd = tools
    if args.selftest:
        return subprocess.call([str(perfbench), "selftest"])

    runs = out / "runs"
    leftovers = sweep_leftovers(runs)
    run_dir = runs / f"{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_out = out / "traces" / f"{label}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(perfbench), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--wormrtd", str(wormrtd),
           "--root", str(run_dir)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    left = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        rc, text = run_tool(cmd, max(left, 60))
    except KeyboardInterrupt:
        log("interrupted; every daemon stopped")
        return 130
    finally:
        fs = fs_type(run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = [l for l in text.splitlines() if l.startswith("{")]
    if rc is None or not lines:
        log("perfbench produced no result")
        return 1
    result = json.loads(lines[-1])

    problems = list(result.get("problems", []))
    ledger_check(out, result, problems)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        got = result["metrics"].get(m["name"])
        value = got["value"] if got else 0.0
        if kind == "end_to_end" and not (value > 0):
            problems.append(f"end-to-end metric {m['name']} is missing or 0")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    added = len(problems) - len(result.get("problems", []))
    failed = result["failed"] + added
    correct = bool(result["correct"]) and added == 0 and rc == 0

    ctx = result["context"]
    ctx.update({
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "cmake_build_type": build_type(out),
        "state_dir_filesystem": fs,
        "python": platform.python_version(),
        "leftovers_removed": leftovers,
        "fail_ratio": failed / max(1, result["attempted"]),
    })
    full = dict(result, problems=problems, failed=failed, correct=correct)
    (out / "results").mkdir(exist_ok=True)
    (out / "results" / f"{label}.json").write_text(json.dumps(full, indent=1))
    print("context: " + json.dumps(ctx, sort_keys=True))
    for p in problems:
        print("problem: " + p)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
