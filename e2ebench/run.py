#!/usr/bin/env python3
"""End-to-end run benchmark for the DistNearClique simulator.

Builds e2e_run (this directory's CMake package, Release) and drives it in a
closed loop: one repetition at a time, each in a fresh process, so one
run's peak RSS can never mask another's. Every repetition covers a whole
`nearclique run`-style execution — instance generation and CSR build,
Network construction with its parallel on_start, the rounds, label
extraction and Network destruction — and is checked against run_oracle.

A run covers a fixed number of instances (INSTANCES; half of it when
traced), whose seeds are drawn from --seed, so the inputs and every exact
metric depend on --seed alone. Instances whose largest sampled component
has more than kMaxComponent nodes (e2e_run.cpp) are screened out before
they run and the next seed is drawn: the explore stage enumerates every
subset of a component, so its cost doubles with each node and one such
instance would outlast the run's time limit. After the first pass the run
repeats its instances, quickest first, until --seconds have elapsed (at
least one repeat). Each metric is the median over instances of the
per-instance median over repetitions.

  --trace 0  untraced repetitions; prints the end-to-end metrics
  --trace 1  each repetition of an instance once traced (NetConfig::profile
             plus the telemetry phase trace) and once untraced; prints the
             per-layer metrics

Determinism is checked on every run: rounds, delivered messages, wire bits
and the label hash must agree between all repetitions of one instance,
traced or not, which also checks that observing a run does not change it.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Earlier lines are a readable report and the run's provenance.

  python3 e2ebench/run.py --workload planted_serial --seed 3 --seconds 36 --trace 0
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("planted_serial", "planted_sharded", "lossy_arq")

# Instance size relative to the full-scale workload table in e2e_run.cpp
# (n x SCALE nodes; p, the planted-set size and the mean background degree
# are kept). README.md explains the choice.
SCALE = 0.05
# Instances per untraced run: about 30 s of first pass on a 4-core x86-64
# host, which leaves time for repeats within a 36 s run.
INSTANCES = {"planted_serial": 24, "planted_sharded": 20, "lossy_arq": 30}
# A whole run (after the build) must end within this many seconds; a
# repetition still running then is killed and counted as failed. The first
# pass starts no new instance past FIRST_PASS_LIMIT_S, so a slow host ends
# the run with fewer instances instead of over the limit.
RUN_LIMIT_S = 170
FIRST_PASS_LIMIT_S = 90


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(root), "e2ebench")


def build():
    """Configures (once) and builds the Release runner; returns its path."""
    out = build_dir()
    nproc = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", nproc], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "e2e_run")


def instance_seed(seed, i):
    """The i-th instance seed of a run (splitmix64 of seed and index)."""
    z = (seed * 0x9E3779B97F4A7C15 + (i + 1) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return (z ^ (z >> 31)) & (2**31 - 1)


def run_rep(binary, workload, seed, trace, scale, corrupt, timeout):
    """One repetition in a fresh process. Returns (record, failure); a
    screened-out instance returns a record with "skipped" set."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--scale", repr(scale)]
    if corrupt:
        cmd.append("--corrupt-labels")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "unparsable runner output"
    if rec["skipped"]:
        return rec, None
    if rec["build_type"] != "Release" or not rec["ndebug"]:
        log(f"refusing to time a {rec['build_type']} build "
            f"(NDEBUG={rec['ndebug']}): only Release timings are reported")
        sys.exit(2)
    return rec, (None if rec["correct"] else rec["failure"])


def fingerprint(rec):
    return (rec["rounds"], rec["messages"], rec["wire_bits"], rec["label_hash"])


def median_of(groups, f):
    """Median over instances of the median of f over each instance's
    repetitions (groups: one list of records per instance)."""
    return statistics.median(statistics.median(f(r) for r in g)
                             for g in groups)


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    root = os.path.dirname(HERE)
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", os.path.dirname(HERE), "rev-parse",
                              "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end_metrics(groups):
    def of(f):
        return median_of(groups, f)

    return {
        "total_s": (of(lambda r: r["total_s"]), "s"),
        "setup_s": (of(lambda r: r["setup_s"]), "s"),
        "solve_s": (of(lambda r: r["solve_s"]), "s"),
        "peak_rss_mb": (of(lambda r: r["peak_rss_kib"] / 1024.0), "MiB"),
        "wire_bits": (of(lambda r: r["wire_bits"]), "bit"),
        "recall": (of(lambda r: r["recall"]), "ratio"),
    }


def per_layer_metrics(traced, pairs):
    def of(key):
        return median_of(traced, lambda r: r[key])

    def goodput(r):
        return (r["wire_bits"] - r["control_bits"]) / r["wire_bits"]

    return {
        "graph.instance_s": (of("instance_s"), "s"),
        "graph.edges_per_s": (median_of(traced,
                                        lambda r: r["m"] / r["instance_s"]),
                              "1/s"),
        "runtime.setup_s": (of("ctor_s"), "s"),
        "runtime.fused_s": (of("fused_s"), "s"),
        "runtime.stage_s": (of("stage_s"), "s"),
        "runtime.deliver_s": (of("deliver_s"), "s"),
        "runtime.wake_s": (of("wake_s"), "s"),
        "runtime.loop_other_s": (of("loop_other_s"), "s"),
        "runtime.stage_imbalance": (of("stage_imbalance"), "ratio"),
        "runtime.deliver_imbalance": (of("deliver_imbalance"), "ratio"),
        "runtime.wake_imbalance": (of("wake_imbalance"), "ratio"),
        "runtime.barrier_wait_s": (of("barrier_wait_s"), "s"),
        "runtime.arena_bytes_total": (of("arena_bytes_total"), "B"),
        "runtime.arena_bytes_peak_shard": (of("arena_bytes_peak_shard"), "B"),
        "runtime.lane_msgs_peak": (of("lane_msgs_peak"), "count"),
        "runtime.bcast_bytes_saved": (of("bcast_bytes_saved"), "B"),
        "runtime.teardown_s": (of("teardown_s"), "s"),
        "core.rounds": (of("rounds"), "count"),
        "core.local_ops": (of("local_ops"), "count"),
        "core.election_bits": (of("election_bits"), "bit"),
        "core.gather_bits": (of("gather_bits"), "bit"),
        "core.explore_bits": (of("explore_bits"), "bit"),
        "core.decide_bits": (of("decide_bits"), "bit"),
        "rel.retransmissions": (of("retransmissions"), "count"),
        "rel.acks": (of("acks"), "count"),
        "rel.control_bits": (of("control_bits"), "bit"),
        "faults.messages_lost": (of("messages_lost"), "count"),
        "rel.goodput_ratio": (median_of(traced, goodput), "ratio"),
        "oracle.verify_s": (of("oracle_s"), "s"),
        "trace.overhead_s": (median_of(pairs, lambda p: p[1]["solve_s"] -
                                       p[0]["solve_s"]), "s"),
        "unattributed_s": (of("unattributed_s"), "s"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=SCALE,
                    help="instance size relative to the full-scale table")
    ap.add_argument("--instances", type=int, default=0,
                    help="instances per run (default: INSTANCES, halved "
                         "when traced)")
    ap.add_argument("--corrupt-labels", action="store_true",
                    help="flip one output label before the oracle check "
                         "(self-test of the correctness gate)")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    trace = args.trace == 1
    target = args.instances or max(1, INSTANCES[args.workload] //
                                   (2 if trace else 1))
    attempted = 0
    failures = []  # (repetition index, instance seed, reason)
    screened = []  # (instance seed, largest sampled component, limit)
    first = {}     # instance seed -> its first correct record
    # Per instance: untraced records; traced records and (untraced, traced)
    # pairs of one repetition when the run is traced.
    untraced, traced, pairs = {}, {}, {}

    def rep(inst, with_trace):
        nonlocal attempted
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
        rec, why = run_rep(binary, args.workload, inst, with_trace,
                           args.scale, args.corrupt_labels, timeout)
        if rec is not None and rec["skipped"]:
            return rec
        attempted += 1
        if why is not None:
            failures.append((attempted, inst, why))
            return None
        ref = first.setdefault(inst, rec)
        if fingerprint(rec) != fingerprint(ref):
            # Charged to the later repetition, the one that disagreed.
            what = "traced repetition" if with_trace else "repetition"
            failures.append((attempted, inst,
                             f"non-deterministic {what}: "
                             f"{fingerprint(rec)} != {fingerprint(ref)}"))
            return None
        return rec

    def unit(inst):
        """One repetition of an instance: untraced, then traced if the run
        is traced. Returns False when the instance was screened out."""
        rec = rep(inst, False)
        if rec is not None and rec["skipped"]:
            screened.append((inst, rec["s_max"], rec["max_component"]))
            return False
        if rec is not None:
            untraced.setdefault(inst, []).append(rec)
        if trace:
            t = rep(inst, True)
            if t is not None:
                traced.setdefault(inst, []).append(t)
                if rec is not None:
                    pairs.setdefault(inst, []).append((rec, t))
        return True

    start = time.monotonic()
    i = 0
    order = []  # instances of the first pass
    while (len(order) < target
           and time.monotonic() - start < FIRST_PASS_LIMIT_S):
        inst = instance_seed(args.seed, i)
        i += 1
        if unit(inst):
            order.append(inst)
    # Repeats, quickest instance first; at least one, so every run checks
    # determinism across repetitions.
    order.sort(key=lambda s: untraced[s][0]["total_s"] if s in untraced
               else float("inf"))
    k = 0
    while order and (k == 0 or time.monotonic() - start < args.seconds):
        unit(order[k % len(order)])
        k += 1

    prov = {
        "commit": commit(),
        "source_digest": source_digest(),
        "build_type": next(iter(first.values()))["build_type"]
        if first else "unknown",
        "hardware_concurrency": next(iter(first.values()))[
            "hardware_concurrency"] if first else 0,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "instances": len(order),
        "screened": len(screened),
        "repetitions": attempted,
        "seconds": round(time.monotonic() - start, 3),
        "rss": "VmHWM of /proc/self/status in a fresh process per "
               "repetition, read after Network destruction and before the "
               "oracle check",
    }
    print(json.dumps({"provenance": prov}))

    for inst, s_max, limit in screened:
        print(f"SCREENED workload={args.workload} seed={args.seed} "
              f"instance_seed={inst}: largest sampled component {s_max} "
              f"> {limit}")
    for _, inst, why in failures:
        print(f"FAIL workload={args.workload} seed={args.seed} "
              f"instance_seed={inst}: {why}")
    failed_reps = len({index for index, _, _ in failures})
    print(f"fail_frac {failed_reps / max(1, attempted):.4f} "
          f"({failed_reps} of {attempted} repetitions)")

    if trace:
        groups = list(traced.values())
        metrics = per_layer_metrics(groups, list(pairs.values())) \
            if groups and pairs else {}
    else:
        groups = list(untraced.values())
        metrics = end_to_end_metrics(groups) if groups else {}
        if groups:
            rounds = [g[0]["rounds"] for g in groups]
            print(f"rounds {statistics.median(rounds):g} count (median over "
                  f"{len(rounds)} instances; min {min(rounds)} "
                  f"max {max(rounds)})")
    for name, (value, unit_) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit_}")

    result = {
        "correct": failed_reps == 0 and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed_reps,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
