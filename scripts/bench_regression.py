#!/usr/bin/env python3
"""Bench trajectory regression gate.

Compares a freshly produced BENCH_*.json against the committed copy and exits nonzero
when any metric has degraded beyond its tolerance, or when an exact-match metric (such as
simbench's events per packet in BENCH_e2e.json) has changed at all. The committed files are the perf
trajectory of the repo: full-mode runs (not `--smoke`), regenerated deliberately as
bench/trajectory/README.md describes, on whatever machine made them. `scripts/check.sh`
compares its own smoke runs against them, so fresh-vs-committed crosses run mode and
machine: the tolerances below have to absorb both differences as well as runner noise.

Usage:
    bench_regression.py BASELINE FRESH    # one bench file pair; exit 1 on regression
    bench_regression.py --self-test       # prove the gate fails on an injected regression

File format: one JSON object per line, {"bench": ..., "metric": ..., "value": ...}.

Policy: every metric is classified by name into a direction (higher-better,
lower-better, exact, or informational) with a tolerance wide enough for shared-runner
noise — the gate exists to catch trajectory-scale regressions (a lost optimization, an
accidentally quadratic path), not single-digit-percent jitter, which the paired
measurement inside each bench already handles. Only degradation fails; improvements
always pass (commit the fresh file to ratchet the trajectory).
"""

import json
import sys

# (predicate on metric name) -> (direction, relative tolerance, absolute slack).
# First match wins. Directions:
#   "higher" — fresh may not fall below baseline*(1-tol) - slack   (throughput, speedups)
#   "lower"  — fresh may not rise above baseline*(1+tol) + slack   (latencies, overheads)
#   "exact"  — any change fails (configuration echoed into the file; changing it is a
#              deliberate act that must come with a baseline update)
#   "info"   — never fails (counters that legitimately change with workload shape)
POLICY = [
    (lambda m: m.endswith("_budget_pct"), ("exact", 0.0, 0.0)),
    # simbench's deterministic counts (BENCH_e2e.json, one "<workload>.<metric>" row each,
    # from seed-1 runs): events per packet repeat exactly for a seed on any host and any
    # repetition count, so any change must come with a regenerated seed. Allocations per
    # packet follow the standard library's allocation pattern, so they are only recorded.
    (lambda m: m.endswith(".events_per_packet"), ("exact", 0.0, 0.0)),
    (lambda m: m.endswith(".allocs_per_packet"), ("info", 0.0, 0.0)),
    # Workload-shape counters scale with the run length, and the committed seed is a
    # full-mode run while check.sh compares smoke-mode output against it.
    (lambda m: m == "sync_rounds", ("info", 0.0, 0.0)),
    # Wall-clock overhead percentages sit near zero and can be negative; relative
    # tolerance is meaningless there, so allow an absolute +10-point excursion.
    (lambda m: m.endswith("overhead_pct"), ("lower", 0.0, 10.0)),
    (lambda m: "speedup" in m, ("higher", 0.40, 0.0)),
    (lambda m: m.endswith("_per_sec"), ("higher", 0.40, 0.0)),
    # Simulation speed (micro_fabric: simulated shard-seconds per wall second; micro_source:
    # simulated seconds per wall second of each media class) is a throughput too, with the
    # same band.
    (lambda m: m.endswith("_sim_s_per_wall_s"), ("higher", 0.40, 0.0)),
    # Time-per-op metrics: generous relative band plus a small absolute slack so
    # single-digit-ns floors (e.g. bare_ns_per_packet) aren't judged relatively.
    (lambda m: "ns_per" in m, ("lower", 0.60, 5.0)),
    (lambda m: m.endswith("_ms"), ("lower", 0.60, 0.5)),
]


def classify(metric):
    for predicate, policy in POLICY:
        if predicate(metric):
            return policy
    return ("info", 0.0, 0.0)


def load(path):
    metrics = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            metrics[row["metric"]] = float(row["value"])
    return metrics


def compare(baseline, fresh, label=""):
    """Returns a list of failure strings (empty = gate passes)."""
    failures = []
    for metric, base in sorted(baseline.items()):
        direction, tol, slack = classify(metric)
        if metric not in fresh:
            failures.append(f"{label}{metric}: missing from fresh results "
                            f"(baseline {base:g})")
            continue
        new = fresh[metric]
        if direction == "info":
            continue
        if direction == "exact":
            if new != base:
                failures.append(f"{label}{metric}: changed {base!r} -> {new!r} "
                                f"(exact-match metric; update the baseline deliberately)")
        elif direction == "higher":
            floor = base * (1.0 - tol) - slack
            if new < floor:
                failures.append(f"{label}{metric}: {base:g} -> {new:g} "
                                f"(below floor {floor:g}; -{tol:.0%} tolerance)")
        elif direction == "lower":
            # A lower-is-better baseline can land below zero (overhead percentages are
            # noise around 0); clamp so the ceiling stays a meaningful bound.
            ceiling = max(base, 0.0) * (1.0 + tol) + slack
            if new > ceiling:
                failures.append(f"{label}{metric}: {base:g} -> {new:g} "
                                f"(above ceiling {ceiling:g}; +{tol:.0%} tolerance)")
        # bare_ns_per_packet's degenerate-timing failure mode (satellite of the same
        # bench): a zero floor means the loop was optimized away, which "improves" the
        # metric — catch it here where direction alone would pass it.
        if metric == "bare_ns_per_packet" and new <= 0.0:
            failures.append(f"{label}{metric}: {new:g} is not positive "
                            f"(bare loop optimized away; timing is degenerate)")
    return failures


def self_test():
    base = {
        "arena_speedup_x": 2.0,
        "arena_packets_per_sec": 15000000.0,
        "legacy_ns_per_packet": 145.0,
        "bare_ns_per_packet": 2.1,
        "overhead_pct": 0.2,
        "overhead_budget_pct": 15.0,
        "sync_rounds": 4000.0,
    }
    cases = [
        ("identical passes", dict(base), 0),
        ("improvement passes", {**base, "arena_packets_per_sec": 30000000.0,
                                "legacy_ns_per_packet": 100.0}, 0),
        ("in-band noise passes", {**base, "arena_speedup_x": 1.7,
                                  "legacy_ns_per_packet": 180.0,
                                  "overhead_pct": 6.0}, 0),
        ("throughput collapse fails", {**base, "arena_packets_per_sec": 7000000.0}, 1),
        ("speedup collapse fails", {**base, "arena_speedup_x": 1.0}, 1),
        ("latency blowup fails", {**base, "legacy_ns_per_packet": 400.0}, 1),
        ("overhead blowup fails", {**base, "overhead_pct": 14.0}, 1),
        ("zero bare floor fails", {**base, "bare_ns_per_packet": 0.0}, 1),
        ("budget change fails", {**base, "overhead_budget_pct": 25.0}, 1),
        ("workload-shape counter passes", {**base, "sync_rounds": 400.0}, 0),
    ]
    cases += [
        ("missing metric fails", {k: v for k, v in base.items()
                                  if k != "arena_speedup_x"}, None),
    ]
    # simbench counts: events per packet are exact in both directions, allocations are
    # informational.
    e2e_base = {"ctms_b.events_per_packet": 37.053608096215896,
                "ctms_b.allocs_per_packet": 1.9531320835222272}
    e2e_cases = [
        ("identical e2e counts pass", e2e_base, dict(e2e_base), 0),
        ("one more event per run fails", e2e_base,
         {**e2e_base, "ctms_b.events_per_packet": 37.05361142954927}, 1),
        ("fewer events fail too (regenerate the seed)", e2e_base,
         {**e2e_base, "ctms_b.events_per_packet": 34.2}, 1),
        ("allocation drift passes", e2e_base,
         {**e2e_base, "ctms_b.allocs_per_packet": 2.5}, 0),
    ]
    # Simulation speed is higher-is-better with the throughput band.
    rate_base = {"shards4_sim_s_per_wall_s": 2400.0}
    rate_cases = [
        ("simulation speed in band passes", rate_base,
         {"shards4_sim_s_per_wall_s": 1500.0}, 0),
        ("simulation speed collapse fails", rate_base,
         {"shards4_sim_s_per_wall_s": 1400.0}, 1),
    ]
    # Negative-baseline cases (a seed can record a noise-negative overhead): the ceiling
    # must clamp to the zero line, not chase the baseline below it.
    neg_base = {"overhead_pct": -12.0}
    neg_cases = [
        ("negative-overhead baseline tolerates in-budget fresh", neg_base,
         {"overhead_pct": 5.0}, 0),
        ("negative-overhead baseline still fails blowup", neg_base,
         {"overhead_pct": 14.0}, 1),
    ]
    ok = True
    for name, baseline, fresh, want_fail in (
            [(n, base, f, w) for n, f, w in cases] + neg_cases + e2e_cases + rate_cases):
        failures = compare(baseline, fresh)
        # want_fail None marks the missing-metric case, which must also fail.
        expected = True if want_fail is None else want_fail == 1
        got = bool(failures)
        status = "ok" if got == expected else "SELF-TEST FAILURE"
        print(f"  [{status}] {name}: {len(failures)} finding(s)")
        for f in failures:
            print(f"        {f}")
        if got != expected:
            ok = False
    if not ok:
        print("self-test: the gate does not behave as documented", file=sys.stderr)
        return 1
    print("self-test: all injected regressions caught, all passes clean")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, fresh_path = argv[1], argv[2]
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    failures = compare(baseline, fresh)
    if failures:
        print(f"bench regression: {fresh_path} degrades the committed trajectory "
              f"{baseline_path}:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"bench trajectory ok: {fresh_path} within tolerance of {baseline_path} "
          f"({len(baseline)} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
