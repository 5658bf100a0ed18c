"""Self-test of the benchmark's answer check.

    python3 perfbench/selftest.py

Each case runs ``run.py`` with one injected defect: a RID dropped
from one answered query, or one modeled cycle count off by one (the
serve_cold ISS replay, and the seed-42 paper cells).  Every such run
must exit non-zero without printing a result line, and its error must
be the check that the defect trips, not some other failure; a clean
run must pass.  Exits 1 if any case behaves otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Long enough for every workload to fill the runner's minimum of
#: windows, so a clean run can pass.
SECONDS = "8"
#: The error each injected defect must produce.
EXPECTED = {"drop-rid": "RIDs, expected",
            "cycle-off-by-one": "modeled cycles, expected"}
CASES = (
    ("serve_cold", None, 0),
    ("serve_cold", "drop-rid", 1),
    ("serve_cold", "cycle-off-by-one", 1),
    ("churn", "drop-rid", 1),
    ("scale_out", "drop-rid", 1),
    ("paper_kernels", "cycle-off-by-one", 1),
)


def _has_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    try:
        return "correct" in json.loads(lines[-1])
    except ValueError:
        return False


def main():
    failures = 0
    for workload, inject, must_fail in CASES:
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "1",
                   "--seconds", SECONDS, "--trace", "0"]
        if inject:
            command += ["--inject", inject]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=300)
        failed = done.returncode != 0 and not _has_result(done.stdout) \
            and EXPECTED.get(inject, "") in done.stderr
        passed = done.returncode == 0 and _has_result(done.stdout)
        ok = failed if must_fail else passed
        failures += not ok
        print("%-4s %-14s %-17s exit %d  %s" % (
            "ok" if ok else "FAIL", workload, inject or "(clean)",
            done.returncode,
            done.stderr.strip().splitlines()[-1] if done.stderr.strip()
            else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
