"""One pass of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --mode setup|time|count|trace

Every mode first times setup (importing loopchain and building the
fixtures).  Then:

  setup  stops there;
  time   times the computation untraced and reads the peak RSS after it;
  count  runs the computation under cProfile and counts every Python and
         builtin call it makes;
  trace  runs it under cProfile with the layer probe and reports the
         per-layer metrics, writing the raw profile to --profile-out.

Except in setup mode the outputs are then checked (each check is one
attempted operation), and every deliberate corruption of the outputs is
fed to the checks to confirm the check it targets fails.  The report is
one JSON line on standard output.
"""

import argparse
import cProfile
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import LayerProbe, layer_metrics, total_calls  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _rejected(wl, name, bad):
    try:
        return not dict(wl.checks(bad))[name]
    except (IndexError, KeyError, TypeError, ValueError):
        # a check that cannot read the corrupted copy has rejected it
        return True


def run(name, mode, profile_out=None):
    wl = WORKLOADS[name]
    t0 = time.perf_counter()
    state = wl.setup()
    report = {"setup_s": time.perf_counter() - t0}
    if mode == "setup":
        return report
    if mode == "time":
        t0 = time.perf_counter()
        result = wl.compute(state)
        report["wall_s"] = time.perf_counter() - t0
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif mode == "count":
        prof = cProfile.Profile()
        result = prof.runcall(wl.compute, state)
        report["calls"] = total_calls(prof)
    else:
        prof = cProfile.Profile()
        with LayerProbe() as probe:
            t0 = time.perf_counter()
            result = prof.runcall(wl.compute, state)
            profiled_s = time.perf_counter() - t0
        report["layers"] = layer_metrics(prof, probe)
        report["layers"]["runtime.profiled_s"] = profiled_s
        if profile_out:
            prof.dump_stats(profile_out)
    out = wl.observe(state, result)
    verdicts = list(wl.checks(out))
    report["attempted"] = len(verdicts)
    report["failed"] = [check for check, ok in verdicts if not ok]
    report["accepted_corruptions"] = [check for check, bad in wl.corruptions(out)
                                      if not _rejected(wl, check, bad)]
    report["digest"] = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("setup", "time", "count", "trace"))
    parser.add_argument("--profile-out")
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.mode, args.profile_out)))


if __name__ == "__main__":
    main()
