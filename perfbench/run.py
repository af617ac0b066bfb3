#!/usr/bin/env python3
"""Build and run the ripple end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the harness plus the ripple libraries from src/) in
Release mode under .bench_build/perfbench, runs one workload, and prints
the harness's report.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; `metrics` holds exactly the
metrics BENCHMARK.json lists (`end_to_end` untraced, `per_layer` traced).
`--workload all` runs every workload the harness has, one after another.
Exits 1 when the build fails, when an output check fails, or when the
harness does not produce a result.  Everything it writes stays under
.bench_build/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "ripple_perf")
HARNESS_TIMEOUT_S = 170
# Gated workloads first (BENCHMARK.json), then the ones run but not gated.
ALL_WORKLOADS = ["pagerank-direct", "summa-nosync", "sssp-incremental",
                 "pagerank-mr-log"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, env):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ripple sources at " + os.path.join(ROOT, "src"))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]
    if run_quiet(configure, env) and run_quiet(compile_, env):
        return
    # A stale cache (for example from a moved checkout) gets one clean retry.
    shutil.rmtree(BUILD, ignore_errors=True)
    if not (run_quiet(configure, env) and run_quiet(compile_, env)):
        fail("build failed")


def code_id():
    """git HEAD when the checkout is a repository, else a digest of the
    src/ and perfbench/ trees."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for folder in ("src", "perfbench"):
        base = os.path.join(ROOT, folder)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def scoped_env(tmp):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIPPLE_")}
    # Compiler temporaries and the log backend's ephemeral store
    # directories go under the checkout.
    env["TMPDIR"] = tmp
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = ALL_WORKLOADS if args.workload == "all" else [args.workload]
    tmp = os.path.join(BUILD_ROOT, "tmp", "run-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    try:
        env = scoped_env(tmp)
        build(env)
        results = [run(name, args, env) for name in names]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(0 if all(results) else 1)


def run(workload, args, env):
    """Run one workload and print its report; True when it was correct."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", code_id()]
    if args.trace:
        cmd += ["--spans", os.path.join(
            results, "%s-seed%d.spans.jsonl" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("harness exited %d without a result" % proc.returncode)
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail("harness did not report " + ", ".join(missing))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in wanted:
        if result["metrics"][name]["unit"] != units[name]:
            fail("%s is reported in %s, BENCHMARK.json says %s"
                 % (name, result["metrics"][name]["unit"], units[name]))
    for line in lines[:-1]:
        print(line)
    correct = result["correct"] and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in wanted},
    }))
    return correct


if __name__ == "__main__":
    main()
