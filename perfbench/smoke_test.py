#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs both workloads for one second, untraced and traced, from the
repository root, and checks the output contract: exit code 0, a last
stdout line with correct/attempted/failed/metrics, exactly the metric
names and units BENCHMARK.json declares, finite values, and that one
seed yields one op stream (same attempted count and strict-op count
on a rerun, a different strict count for another seed). Exits 1 on
the first mismatch.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-3000:])
        raise AssertionError("%s trace=%d: exit %d"
                             % (workload, trace, proc.returncode))
    return json.loads(lines[-1])


def check(result, declared, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert result["attempted"] >= 1, label
    assert 0 <= result["failed"] <= result["attempted"], label
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared, "%s: metrics %s" % (label, sorted(
        set(got.items()) ^ set(declared.items())))
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), (label, name)
        assert math.isfinite(v["value"]), (label, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    results = {}
    for w in bench["workloads"]:
        name = w["name"]
        plain = run(name, 7, 0)
        check(plain, e2e, name + " untraced")
        results[name] = run(name, 7, 1)
        check(results[name], layer, name + " traced")
        print("ok  %s (attempted %d, failed %d)"
              % (name, plain["attempted"], plain["failed"]))
    # One seed, one op stream: the strict draws repeat exactly.
    def strict(result):
        return result["metrics"]["bench.strict_sent"]["value"]
    first = results["serve-b-epoch"]
    again = run("serve-b-epoch", 7, 1)
    assert again["attempted"] == first["attempted"], "schedule differs"
    assert strict(again) == strict(first), "strict ops differ on a rerun"
    other = run("serve-b-epoch", 8, 1)
    assert strict(other) != strict(first), "seed does not reach the stream"
    print("ok  serve-b-epoch op stream is a function of --seed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print("FAIL", err)
        sys.exit(1)
