#!/usr/bin/env python3
"""End-to-end benchmark of HPAS's three user paths.

Builds perfbench_workloads from the checkout's sources, runs one workload,
checks its outputs, records the environment, and prints every metric by
name and unit. The last stdout line is one JSON object:

    {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set; with
--trace 1 they are its per_layer set, from a traced run that also checks
its outputs against an untraced run of the same inputs.

    python3 perfbench/run.py --workload dataset_voltrino --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all     # every workload, default
                                                # and held-out seed

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import datetime
import fcntl
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dataset_voltrino", "sim_dragonfly1k", "serve_mixed")
# Settings that change what the program computes or how; a result taken
# with any of them set would not be comparable.
REFUSED_ENV = ("HPAS_SIM_SHARDS", "HPAS_FULL_RECOMPUTE", "HPAS_FAULT_SCHEDULE")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# Every workload's own metrics, printed by name for people; the gated
# end-to-end metrics carry the headline one under a shared name.
NAMED_UNITS = {
    "rows_per_s": "rows/s",
    "setup_raw_s": "s",
    "host_pass_ms": "ms",
    "host_passes": "count",
    "build_wall_p50_ms": "ms",
    "builds": "count",
    "sim_s_per_wall_s": "sim-s/s",
    "scenario_p50_ms": "ms",
    "typical_sweep_ms": "ms",
    "sweeps": "count",
    "submit_p50_ms": "ms",
    "submit_p99_ms": "ms",
    "cold_p50_ms": "ms",
    "cold_p99_ms": "ms",
    "hit_p50_ms": "ms",
    "hit_p99_ms": "ms",
    "goodput_per_s": "1/s",
    "samples": "count",
    "cold_samples": "count",
    "hit_samples": "count",
    "gen_lag_p99_ms": "ms",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in its own process group; on timeout the whole group
    (a build's compilers included) is killed and reaped before raising."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return proc.returncode, stdout


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build_binary(out):
    """Configures and builds the workload binary; returns its path."""
    cmake_dir = os.path.join(out, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    steps = [["cmake", "-S", HERE, "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "--target", "perfbench_workloads",
              "-j", jobs]]
    with open(os.path.join(out, "perfbench.lock"), "w") as lock, \
            open(log_path, "w") as build_log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            rc, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=build_log,
                              stderr=subprocess.STDOUT)
            if rc != 0:
                build_log.flush()
                with open(log_path) as f:
                    log(f.read()[-4000:])
                raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench_workloads")


def cmake_cache(out):
    wanted = ("CMAKE_BUILD_TYPE", "CMAKE_CXX_COMPILER", "CMAKE_CXX_FLAGS",
              "CMAKE_CXX_FLAGS_RELEASE")
    found = {}
    try:
        with open(os.path.join(out, "perfbench", "CMakeCache.txt")) as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                name = key.split(":")[0]
                if name in wanted:
                    found[name] = value
    except OSError:
        pass
    return found


def git_state():
    """Revision and dirty flag, or 'unknown' outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"rev": "unknown", "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"rev": "unknown", "dirty": None}
    if rev.returncode != 0:
        return {"rev": "unknown", "dirty": None}
    return {"rev": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def environment(out):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "governor": read_text(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "git": git_state(),
        "cmake": cmake_cache(out),
        "hpas_env": {k: v for k, v in os.environ.items()
                     if k.startswith("HPAS_")},
    }


def digests(directory):
    result = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as f:
                result[name] = hashlib.sha256(f.read()).hexdigest()
    return result


def run_workload(binary, out, gates, workload, seed, seconds, trace):
    """Runs one workload; returns (correct, report, result document)."""
    env_info = environment(out)
    workdir = os.path.join(out, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", ".",
           "--latency-limit-ms", str(gates["latency_limit_ms"]),
           "--host-reference-ms", str(gates["host_reference_ms"])]
    try:
        rc, stdout = run_group(cmd, RUN_TIMEOUT_S, cwd=workdir,
                               stdout=subprocess.PIPE, text=True)
        lines = stdout.strip().splitlines()
        report = json.loads(lines[-1]) if lines else None
        problems = []
        if report is None:
            raise RuntimeError("%s printed no report (exit %d)"
                               % (os.path.basename(binary), rc))
        if rc != 0:
            problems.append("workload exit code %d" % rc)
        problems += ["%s: %s" % (c["name"], c["detail"])
                     for c in report["checks"] if not c["ok"]]
        pinned = {}
        if report["pinned_dir"]:
            pinned = digests(os.path.join(workdir, report["pinned_dir"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pins = gates["pins"].get(workload, {})
    pin_checked = seed == gates["default_seed"] and bool(pins)
    if pin_checked:
        for name, want in sorted(pins.items()):
            if pinned.get(name) != want:
                problems.append("pinned digest of %s: got %s, want %s"
                                % (name, pinned.get(name), want))
    if trace:
        residue = report["layers"]["layers_unaccounted_frac"]
        tolerance = gates["layers_unaccounted_tolerance"]
        if not residue <= tolerance:
            problems.append("layers_unaccounted_frac %.4f exceeds %.4f"
                            % (residue, tolerance))

    env_info["loadavg_end"] = list(os.getloadavg())
    doc = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "time_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "environment": env_info,
        "config": report["config"],
        "claim": gates["claim"],
        "correct": not problems,
        "problems": problems,
        "pins_checked": pin_checked,
        "digests": pinned,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "end_to_end": report["end_to_end"],
        "named": report["named"],
        "layers": report["layers"],
    }
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S")
    path = os.path.join(results, "%s-seed%d-trace%d-%s-%d.json"
                        % (workload, seed, int(trace), stamp, os.getpid()))
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    doc["result_file"] = os.path.relpath(path, ROOT)
    return not problems, report, doc


def layer_value(doc, metric):
    """A per-layer metric of a traced run; 0 for a layer the workload's
    path does not exercise."""
    return doc["layers"].get(metric["name"], 0.0)


def print_summary(bench, doc):
    w = doc["workload"]
    env_info = doc["environment"]
    print("%s seed=%d trace=%d nproc=%d load=%.2f->%.2f config=%s"
          % (w, doc["seed"], doc["trace"], env_info["nproc"],
             env_info["loadavg_start"][0], env_info["loadavg_end"][0],
             json.dumps(doc["config"], sort_keys=True)))
    for m in bench["end_to_end"]:
        print("  %-24s %14.6g %s" % (m["name"], doc["end_to_end"][m["name"]],
                                     m["unit"]))
    for name, value in doc["named"].items():
        print("  %-24s %14.6g %s" % (name, value, NAMED_UNITS.get(name, "")))
    failed_frac = doc["failed"] / max(doc["attempted"], 1)
    print("  %-24s %14.6g ratio (%d of %d)" % ("failed_frac", failed_frac,
                                              doc["failed"], doc["attempted"]))
    if doc["trace"]:
        for m in bench["per_layer"]:
            print("  %-24s %14.6g %s" % (m["name"], layer_value(doc, m),
                                         m["unit"]))
    for p in doc["problems"]:
        print("  FAILED: " + p)
    print("  result file: " + doc["result_file"])


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    gates = load_json(os.path.join(HERE, "gates.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=gates["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    refused = [k for k in REFUSED_ENV if k in os.environ]
    if refused:
        log("run.py: refusing to run with %s set" % ", ".join(refused))
        return 2

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = build_binary(out)

    if args.workload == "all":
        ok = True
        for workload in WORKLOADS:
            for seed in (gates["default_seed"], gates["held_out_seed"]):
                good, _, doc = run_workload(binary, out, gates, workload, seed,
                                            args.seconds, bool(args.trace))
                print_summary(bench, doc)
                ok = ok and good
        print(json.dumps({"correct": ok}))
        return 0 if ok else 1

    good, report, doc = run_workload(binary, out, gates, args.workload,
                                     args.seed, args.seconds, bool(args.trace))
    print_summary(bench, doc)
    if args.trace:
        metrics = {m["name"]: {"value": layer_value(doc, m), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": doc["end_to_end"][m["name"]],
                               "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    print(json.dumps({"correct": good, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if good else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # no result line: the run failed outright
        log("run.py: %s: %s" % (type(e).__name__, e))
        sys.exit(1)
