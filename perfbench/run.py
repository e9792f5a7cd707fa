"""The loopchain benchmark.

    python3 perfbench/run.py --workload hh-ext2|s3-power|rp-power \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports loopchain from src/.
Every pass runs in a fresh process (perfbench/worker.py), one at a time.
The seed sets PYTHONHASHSEED of those processes, so different seeds see
different dict and set layouts; the inputs are the same on every seed.

--trace 0 prints the end-to-end metrics: setup_s, the median over
SETUP_SAMPLES_PER_ROUND setup-only processes per untraced pass and every
other pass; wall_s and
peak_rss_mb, medians over the untraced passes run for --seconds; calls,
from one cProfile pass of its own.  Every pass's report is written to
perfbench/out/<workload>-seed<N>-passes.json.

--trace 1 prints the per-layer metrics: profiled passes for --seconds,
each time the median over the passes and each count the lower median (the
counts repeat exactly).  The raw profile of the last pass and every pass's
layer metrics are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hh-ext2", "s3-power", "rp-power")

SETUP_SAMPLES_PER_ROUND = 2
MIN_ROUNDS = 3
# The whole run must end within 180 s; no child may outlive this budget.
BUDGET_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "calls": "calls"}


class ChildFailed(Exception):
    pass


def child(workload, mode, seed, deadline, profile_out=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--mode", mode]
    if profile_out:
        cmd += ["--profile-out", profile_out]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("time budget exhausted before the %s pass" % mode)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s pass exceeded the time budget" % mode)
    if proc.returncode != 0:
        raise ChildFailed("%s pass exited with %d:\n%s" % (mode, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def out_stem(workload, seed):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, "%s-seed%d" % (workload, seed))


def end_to_end(workload, seed, seconds, deadline):
    setups = []
    rounds = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        # setup-only samples spread over the run, not taken in one burst
        setups += [child(workload, "setup", seed, deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES_PER_ROUND)]
        rounds.append(child(workload, "time", seed, deadline))
    count = child(workload, "count", seed, deadline)
    with open(out_stem(workload, seed) + "-passes.json", "w") as fh:
        json.dump({"setup_s": setups, "passes": rounds + [count]}, fh, indent=1, sort_keys=True)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds + [count]]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "calls": count["calls"],
    }
    return rounds + [count], {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                              for k, v in metrics.items()}


def per_layer(workload, seed, seconds, deadline):
    stem = out_stem(workload, seed)
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(child(workload, "trace", seed, deadline, profile_out=stem + ".pstats"))
    with open(stem + "-layers.json", "w") as fh:
        json.dump([p["layers"] for p in passes], fh, indent=1, sort_keys=True)
    metrics = {}
    for name in passes[0]["layers"]:
        values = [p["layers"][name] for p in passes]
        if name.endswith("_s") or name.endswith("_ratio"):
            metrics[name] = {"value": statistics.median(values),
                             "unit": "s" if name.endswith("_s") else "ratio"}
        else:
            metrics[name] = {"value": statistics.median_low(values), "unit": "count"}
    return passes, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "loopchain", "__init__.py")):
        sys.exit("no loopchain source under %s" % os.path.join(ROOT, "src"))
    deadline = time.monotonic() + BUDGET_S
    measure = per_layer if args.trace else end_to_end
    try:
        passes, metrics = measure(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        sys.exit("benchmark failed: %s" % exc)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        for check in p["failed"]:
            print("check failed: %s" % check, file=sys.stderr)
        for check in p["accepted_corruptions"]:
            print("check accepted a corrupted result: %s" % check, file=sys.stderr)
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        print("outputs differ between passes of one run", file=sys.stderr)
    correct = len(digests) == 1 and not any(p["accepted_corruptions"] for p in passes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
