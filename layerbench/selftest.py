#!/usr/bin/env python3
"""Self-tests of the layered benchmark, from the root of a checkout:

    python3 layerbench/selftest.py

- span self-time attribution (test_span.exe, also part of `dune runtest`);
- a smoke-size untraced run of every workload: JSON shape, metric names
  and units as BENCHMARK.json lists them, ok_share 1;
- one smoke-size traced run: every per-layer metric with its unit;
- the two known flow hangs end as one failed op within the deadline;
- outside a checkout the benchmark exits non-zero without a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

FLOW_DEADLINE = 6.0  # Work.flow_deadline
failures = []


def check(what, ok, detail=""):
    print("%s %s%s" % ("ok  " if ok else "FAIL", what, (": " + detail) if detail and not ok else ""),
          flush=True)
    if not ok:
        failures.append(what)


def result_of(proc):
    try:
        return run.last_json(proc.stdout)
    except ValueError:
        return None


def check_shape(label, result, expected):
    check(label + " prints a result", result is not None)
    if result is None:
        return
    check(label + " result keys", sorted(result) == ["attempted", "correct", "failed", "metrics"],
          str(sorted(result)))
    check(label + " counts", isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int))
    metrics = result["metrics"]
    check(label + " metric names", sorted(metrics) == sorted(expected),
          "missing %s, extra %s" % (sorted(set(expected) - set(metrics)),
                                    sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        ok = (sorted(m) == ["unit", "value"] and m["unit"] == unit
              and isinstance(m["value"], (int, float)) and math.isfinite(m["value"]))
        check("%s %s is a number in %s" % (label, name, unit), ok, json.dumps(m))


def main():
    root = os.getcwd()
    run.check_layout(root)
    bench, wp_cli = run.build(root)
    subprocess.run(["dune", "build", "--root", root, "--build-dir", os.path.join(root, run.BUILD_DIR),
                    "./layerbench/test_span.exe"], check=True, stdout=sys.stderr)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    span = subprocess.run([os.path.join(root, run.BUILD_DIR, "default", "layerbench", "test_span.exe")],
                          capture_output=True, text=True)
    check("span self-time attribution", span.returncode == 0, span.stdout)

    for w in run.WORKLOADS:
        proc = run.run_once(bench, wp_cli, "selftest", w, 7, 1, 0, True, capture=True)
        check("smoke %s exits 0" % w, proc.returncode == 0, proc.stderr[-2000:])
        result = result_of(proc)
        check_shape("smoke " + w, result, e2e)
        if result:
            check("smoke %s ok_share is 1" % w, result["metrics"]["ok_share"]["value"] == 1
                  and result["failed"] == 0 and result["correct"] is True)
            check("smoke %s non-zero metrics" % w, all(m["value"] != 0 for m in result["metrics"].values()))
            check("smoke %s prints its stamp" % w, any(l.startswith("stamp {") for l in proc.stdout.splitlines()))

    proc = run.run_once(bench, wp_cli, "selftest", "sweep", 7, 1, 1, True, capture=True)
    check("traced smoke exits 0", proc.returncode == 0, proc.stderr[-2000:])
    result = result_of(proc)
    check_shape("traced smoke", result, per_layer)
    check("traced smoke writes its Chrome trace",
          os.path.exists(os.path.join(root, ".layerbench_out", "trace-sweep-7.json")))

    for topology, seed in [("rand:1000", 892414183), ("rand:1000:seed272178714", 42)]:
        t0 = time.monotonic()
        proc = subprocess.run([bench, "--flow-check", topology, "--flow-seed", str(seed)],
                              capture_output=True, text=True, timeout=120)
        secs = time.monotonic() - t0
        result = result_of(proc)
        label = "flow %s --seed %d" % (topology, seed)
        check(label + " exits 0", proc.returncode == 0, proc.stderr[-2000:])
        check(label + " is one failed op", result is not None and result["attempted"] == 1
              and result["failed"] == 1, json.dumps(result))
        check(label + " ends within its deadline", secs < FLOW_DEADLINE + 5.0, "%.1f s" % secs)

    bare = os.path.join(root, ".layerbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "layerbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "layerbench/run.py", "--workload", "table1", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    check("outside a checkout: non-zero exit and no result",
          proc.returncode != 0 and proc.stdout.strip() == "", proc.stdout)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failures" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
