#!/usr/bin/env python3
"""Build and run the layered benchmark from the root of a checkout.

One run of one workload (the last stdout line is the JSON result):

    python3 layerbench/run.py --workload table1|sweep|flow|serve \
        --seed N --seconds S --trace 0|1 [--smoke]

Steadiness report: the same workload N times on seeds K..K+N-1, then,
per metric, the median, quartiles, min/max and the quartile spread as a
share of the median and of the metric's bound in BENCHMARK.json:

    python3 layerbench/run.py --repeat N --workload W [--first-seed K]
        [--seconds S] [--trace 0|1]

The benchmark builds bench.exe and bin/wp_cli.exe from source with dune,
into .bench_build/ inside the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["table1", "sweep", "flow", "serve"]
BUILD_DIR = ".bench_build"
TARGETS = ["./layerbench/bench.exe", "./bin/wp_cli.exe"]


def fail(msg):
    print("layerbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_layout(root):
    needed = ["dune-project", "lib", "bin", "test/table1.expected", "layerbench/dune"]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        fail("not the root of a wirepipe checkout (missing %s)" % ", ".join(missing))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")


def build(root):
    cmd = ["dune", "build", "--root", root, "--build-dir", os.path.join(root, BUILD_DIR)] + TARGETS
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed: " + " ".join(cmd))
    exe = lambda t: os.path.join(root, BUILD_DIR, "default", t[2:])
    return exe(TARGETS[0]), exe(TARGETS[1])


def revision(root):
    """The git revision when there is one, plus a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        git = "none"
    h = hashlib.sha1()
    for top in ["lib", "bin", "layerbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "git:%s src:%s" % (git, h.hexdigest()[:12])


def run_once(bench, wp_cli, rev, workload, seed, seconds, trace, smoke, capture=False):
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--wp-cli", wp_cli, "--rev", rev]
    if smoke:
        cmd.append("--smoke")
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    return subprocess.run(cmd)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def steadiness(root, bench, wp_cli, rev, args):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values, failed, attempted = {}, 0, 0
    for k in range(args.repeat):
        seed = args.first_seed + k
        proc = run_once(bench, wp_cli, rev, args.workload, seed, args.seconds, args.trace,
                        args.smoke, capture=True)
        result = last_json(proc.stdout) if proc.returncode == 0 else None
        if result is None:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            fail("run with seed %d failed (exit %d)" % (seed, proc.returncode))
        failed += result["failed"]
        attempted += result["attempted"]
        print("seed %d: %s" % (seed, json.dumps(result["metrics"])), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%s, %d runs, %d of %d ops failed" % (args.workload, args.repeat, failed, attempted))
    print("%-32s %12s %12s %12s %12s %12s %8s %8s" %
          ("metric", "median", "q1", "q3", "min", "max", "spread", "/bound"))
    for name, vs in values.items():
        vs = [v for v in vs if v is not None]
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        print("%-32s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %8s" %
              (name, med, q1, q3, min(vs), max(vs), spread,
               "%.3f" % (spread / bound) if bound else "-"))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="smallest run that exercises every path")
    p.add_argument("--repeat", type=int, help="steadiness report over this many seeds")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    root = os.getcwd()
    check_layout(root)
    bench, wp_cli = build(root)
    rev = revision(root)
    if args.repeat:
        steadiness(root, bench, wp_cli, rev, args)
        return
    if args.seed is None:
        fail("--seed is required")
    sys.exit(run_once(bench, wp_cli, rev, args.workload, args.seed, args.seconds, args.trace,
                      args.smoke).returncode)


if __name__ == "__main__":
    main()
