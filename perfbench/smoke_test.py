#!/usr/bin/env python3
"""Smoke test of the benchmark in a short mode (about a minute and a half).

Run from the repository root:

    python3 perfbench/smoke_test.py

Checks, for every workload, that an untraced and a traced run succeed,
verify their outputs and print every metric BENCHMARK.json names, each
finite; that the native_small decomposition check passes; that two traced
native_small invocations with different seeds report identical simulator
virtual-time metrics; and that the seed changes the payloads. Exits
non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "1"


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("FAIL %s seed %d trace %d: exit %d\n%s" %
                 (workload, seed, trace, proc.returncode, proc.stdout))
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, trace, result, wanted):
    tag = "%s trace %d" % (workload, trace)
    if not result["correct"] or result["failed"] != 0:
        sys.exit("FAIL %s: outputs did not verify (%d of %d failed)" %
                 (tag, result["failed"], result["attempted"]))
    if result["attempted"] < 1:
        sys.exit("FAIL %s: nothing attempted" % tag)
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            sys.exit("FAIL %s: metric %s missing" % (tag, m["name"]))
        entry = got[m["name"]]
        if entry["unit"] != m["unit"] or not math.isfinite(entry["value"]):
            sys.exit("FAIL %s: metric %s is %r" % (tag, m["name"], entry))
    if set(got) != {m["name"] for m in wanted}:
        sys.exit("FAIL %s: unexpected metrics %s" %
                 (tag, sorted(set(got) - {m["name"] for m in wanted})))


def digest(info):
    return next(l for l in info if l.startswith("payload digest"))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            info, result = run(w, 1, trace)
            check_metrics(w, trace, result, wanted)
            if w == "native_small" and trace == 1:
                line = next(l for l in info
                            if l.startswith("decomposition check"))
                if not line.endswith("PASS"):
                    sys.exit("FAIL native_small: %s" % line)
                # The simulator probe runs here: its virtual results must
                # not depend on the invocation or the seed; payloads must.
                info2, result2 = run(w, 2, 1)
                check_metrics(w, 1, result2, spec["per_layer"])
                exact = [m["name"] for m in spec["per_layer"]
                         if m["name"].startswith(("sim.virtual", "sim.ops",
                                                  "model.pred_err"))]
                for name in exact:
                    a = result["metrics"][name]["value"]
                    b = result2["metrics"][name]["value"]
                    if a != b or a <= 0:
                        sys.exit("FAIL native_small: %s is %r, then %r" %
                                 (name, a, b))
                if digest(info) == digest(info2):
                    sys.exit("FAIL: seeds 1 and 2 produced the same payloads")
            print("ok %s trace %d" % (w, trace))
    print("smoke test passed")


if __name__ == "__main__":
    main()
