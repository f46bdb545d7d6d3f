#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot_stream --seed 1 --seconds 30 --trace 0

Builds the perfbench binary from source (perfbench/CMakeLists.txt plus the
library under src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when the variable is unset, then runs it. Prints a table of every metric with
its unit, direction and determinism class, writes the run's artifact (run
config, metrics, open-loop bookkeeping, determinism verdicts) and, with
--trace 1, the recorded spans under <build>/artifacts/, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones. Metric definitions,
layers and predictions live in perfbench/metrics.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_registry():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def check_benchmark_json(registry):
    """BENCHMARK.json must list the registry's metrics with the same units."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        bench = json.load(f)
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in registry[key]]
        got = [(m["name"], m["unit"], m["better"]) for m in bench.get(key, [])]
        if want != got:
            fail(f"BENCHMARK.json {key} does not match perfbench/metrics.json")
    names = [w["name"] for w in bench.get("workloads", [])]
    if names != registry["workloads"]:
        fail("BENCHMARK.json workloads do not match perfbench/metrics.json")


def build(build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def main():
    registry = load_registry()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=registry["workloads"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    check_benchmark_json(registry)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    artifacts = os.path.join(build_dir, "artifacts")
    os.makedirs(artifacts, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--artifact-prefix={os.path.join(artifacts, stem)}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"measuring binary exceeded {BINARY_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"measuring binary exited with {proc.returncode}")
    result = json.loads(lines[-1])

    wanted = registry["end_to_end" if args.trace == 0 else "per_layer"]
    metrics = {}
    rows = []
    for m in wanted:
        name = m["name"]
        if name in result["metrics"]:
            value = result["metrics"][name]
            note = ""
        elif args.workload not in m["measured_on"]:
            value = 0.0  # the workload does not exercise what this measures
            note = "n/a on this workload"
        else:
            fail(f"binary did not report {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
        rows.append((name, value, m["unit"], m["better"], m["class"],
                     m["layer"], note))

    config = dict(result["info"].get("config", {}))
    config["git_describe"] = git_describe()
    artifact = {
        "config": config,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": [
            {"name": r[0], "value": r[1], "unit": r[2], "better": r[3],
             "class": r[4], "layer": r[5], "note": r[6]} for r in rows],
        "info": {k: v for k, v in result["info"].items() if k != "config"},
    }
    with open(os.path.join(artifacts, stem + ".json"), "w") as f:
        json.dump(artifact, f, indent=1)
        f.write("\n")

    print("run config: " + json.dumps(config, sort_keys=True))
    for key, value in sorted(artifact["info"].items()):
        if key != "open_loop":
            print(f"  {key}: {json.dumps(value)}")
    for rate in artifact["info"].get("open_loop", []):
        print("  open loop: " + json.dumps(rate, sort_keys=True))
    print(f"{'metric':32} {'value':>16} {'unit':12} {'better':7} "
          f"{'class':14} layer")
    for name, value, unit, better, cls, layer, note in rows:
        print(f"{name:32} {value:16.6g} {unit:12} {better:7} {cls:14} "
              f"{layer} {note}".rstrip())
    if not result["correct"]:
        print("INCORRECT: " + "; ".join(result["failures"]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
