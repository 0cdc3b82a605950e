#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark itself (runs in about a minute
after the build).

For every workload, at a scaled-down instance size and with two instances
per run, it runs the full check path of run.py untraced and traced and
asserts that:
  - every repetition is correct (oracle agreement, determinism);
  - the printed metric names and units are exactly BENCHMARK.json's
    end_to_end (untraced) and per_layer (traced) lists;
  - the traced run's unattributed_s stays under UNATTRIBUTED_BOUND_S.
Then it corrupts one output label and asserts that every repetition is
reported as failed, with the workload and seed on a FAIL line.

  python3 e2ebench/smoke_test.py      # from the repository root
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SCALE = "0.02"
SMOKE_INSTANCES = "2"
SEED = "3"
# total_s minus the outside-in layer times is the config assembly and
# make_schedule between make_scenario and the Network constructor plus the
# clock reads themselves: 30-60 us per repetition measured on a 4-core
# x86-64 host at every scale, so 2 ms flags a layer that stopped being
# timed, not noise.
UNATTRIBUTED_BOUND_S = 0.002


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "0", "--trace", str(trace),
           "--scale", SMOKE_SCALE, "--instances", SMOKE_INSTANCES,
           *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            try:
                _, res = run(workload, trace)
                expect(res["correct"] and res["failed"] == 0,
                       f"{label}: run not correct: {res}")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                expect(got == want[trace],
                       f"{label}: metrics {sorted(got.items())} != "
                       f"BENCHMARK.json {sorted(want[trace].items())}")
                if trace:
                    un = res["metrics"]["unattributed_s"]["value"]
                    expect(abs(un) <= UNATTRIBUTED_BOUND_S,
                           f"{label}: unattributed_s {un} exceeds "
                           f"{UNATTRIBUTED_BOUND_S}")
                print(f"PASS {label}")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {e}")
    try:
        lines, res = run("planted_serial", 0, "--corrupt-labels")
        expect(not res["correct"], "corrupted labels reported correct")
        expect(res["failed"] == res["attempted"] >= 1,
               f"corrupted labels: failed {res['failed']} of "
               f"{res['attempted']}, expected all")
        expect(any(l.startswith("FAIL workload=planted_serial seed=" + SEED)
                   and "labels differ from run_oracle" in l for l in lines),
               "corrupted labels: no FAIL line naming workload and seed")
        print("PASS corrupted labels are reported as failures")
    except AssertionError as e:
        failures += 1
        print(f"FAIL {e}")
    print("smoke test " + ("passed" if failures == 0 else f"failed ({failures})"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
