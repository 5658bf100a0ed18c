"""Run several workloads over several seeds, one process per run.

    python3 perfbench/sweep.py --seeds 1                 # every workload
    python3 perfbench/sweep.py --workloads churn --seeds 1 2 3 4 5

Runs ``run.py`` for each (workload, seed), one after another, prints
each run's metric lines and then, per workload and metric, the median
over the seeds and the distance between the first and third quartiles
as a share of the median.  ``BENCHMARK.json``'s bounds are meant to
stay above three times that share.  A seed listed twice must give
identical values for every deterministic metric (``kinds.json``).
Exits 1 if a run fails its answer check or a deterministic metric
differs between repeats.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _deterministic(kinds, name):
    if name in kinds:
        return kinds[name] == "deterministic"
    return not name.endswith("_frac")


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "kinds.json")) as f:
        kinds = json.load(f)["end_to_end"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    problems = []
    for workload in args.workloads:
        values = {}
        first_seen = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            print("== %s seed %d (exit %d)" % (workload, seed,
                                                 done.returncode))
            if done.returncode != 0:
                print(done.stderr.strip())
                problems.append("%s seed %d failed" % (workload, seed))
                continue
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                if not _deterministic(kinds, name):
                    continue
                first = first_seen.setdefault((seed, name),
                                              metric["value"])
                if first != metric["value"]:
                    problems.append("%s seed %d: deterministic %s was "
                                    "%r, then %r" % (workload, seed, name,
                                                     first, metric["value"]))
        if len(args.seeds) < 2:
            continue
        print("== %s over seeds %s" % (workload, args.seeds))
        for name, series in values.items():
            median = statistics.median(series)
            first, _, third = statistics.quantiles(series, n=4)
            share = (third - first) / median if median else 0.0
            print("%-34s median %12.6g  spread %6.3f  bound %-5s [%s]"
                  % (name, median, share, bounds.get(name, "-"),
                     " ".join("%.4g" % value for value in series)))
    for problem in problems:
        print("PROBLEM: %s" % problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
