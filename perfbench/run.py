#!/usr/bin/env python3
"""Runs one workload of the ppcd benchmark and prints its metrics.

    python3 perfbench/run.py --workload paper_pool --seed 7 --seconds 20 --trace 0

Run from the repository root. The first run builds ppcd and the ppcbench
harness from source with CMake into .bench_build/ (or $CARGO_TARGET_DIR).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger of
the traced pass (see perfbench/README.md). Every line but the last is a
report for people: host meta, the harness's full report with every figure
and check. The last line is one JSON object with exactly the keys
correct, attempted, failed and metrics, holding the metrics BENCHMARK.json
names. The exit code is 0 only when every check passed.
"""
import argparse
import fcntl
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170  # the whole run, build excluded


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then builds ppcd and ppcbench (a no-op when current)."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no repository sources next to perfbench/")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr, timeout=300)
        subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                        "ppcd", "ppcbench"],
                       check=True, stdout=sys.stderr, timeout=850)
    return (os.path.join(bdir, "ppcbench"),
            os.path.join(bdir, "ppc_tools", "ppcd"))


def host_meta():
    meta = {"nproc": os.cpu_count(), "kernel": platform.release(),
            "cpu_model": "", "l2": "", "l3": ""}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    meta["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(cache)):
            path = os.path.join(cache, idx)
            try:
                with open(os.path.join(path, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(path, "size")) as f:
                    size = f.read().strip()
            except OSError:
                continue
            if level in ("2", "3"):
                meta["l" + level] = size
    except OSError:
        pass
    return meta


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run_harness(binary, ppcd, args, workdir, timeout_s):
    cmd = [binary, "trace" if args.trace else "wire",
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--ppcd=" + ppcd,
           "--workdir=" + workdir]
    if args.inject:
        cmd.append("--inject=" + args.inject)
    env = {k: v for k, v in os.environ.items() if k != "PPC_ENGINE_DEFAULT"}
    # Its own process group, so a timeout also stops the ppcd it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("ppcbench timed out after %d s" % timeout_s)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError("ppcbench printed no report (exit %d)"
                           % proc.returncode)
    return json.loads(lines[-1]), proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", default="",
                    help="fault injection for the benchmark's own tests: "
                         "oracle-flip or follower-skip")
    args = ap.parse_args()

    try:
        binary, ppcd = build(build_dir())
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed:", e)
        return 2
    started = time.monotonic()
    workdir = os.path.join(build_dir(), "work",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        report, rc = run_harness(binary, ppcd, args, workdir, RUN_BUDGET_S)
    except (RuntimeError, OSError, ValueError) as e:
        log("perfbench:", e)
        return 1
    finally:
        spans = os.path.join(workdir, "spans-%s.csv" % args.workload)
        if os.path.exists(spans):
            keep = os.path.join(build_dir(), "spans")
            os.makedirs(keep, exist_ok=True)
            shutil.move(spans, os.path.join(
                keep, "%s-%d.csv" % (args.workload, args.seed)))
        shutil.rmtree(workdir, ignore_errors=True)

    report["host"] = host_meta()
    report["workload"] = args.workload
    report["seed"] = args.seed
    report["seconds"] = args.seconds
    report["wall_s"] = round(time.monotonic() - started, 3)
    print(json.dumps(report, sort_keys=True))

    metrics = {}
    missing = []
    for name in metric_names(args.trace):
        m = report["metrics"].get(name)
        if m is None or m["value"] is None:
            missing.append(name)
        else:
            metrics[name] = m
    correct = bool(report["correct"]) and rc == 0 and not missing
    if missing:
        log("perfbench: metrics not reported:", ", ".join(missing))
    for check in report.get("failed_checks", []):
        log("perfbench: FAILED:", check)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
