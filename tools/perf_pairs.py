#!/usr/bin/env python3
"""Runs alternating perfbench pairs from two checkouts and summarises them.

    python3 tools/perf_pairs.py --parent ../parent --change . \\
        --workload paper_offline --seed 1 --pairs 10 --log pairs.jsonl
    python3 tools/perf_pairs.py --summarize pairs.jsonl
    python3 tools/perf_pairs.py --self-test

Each pair runs `python3 perfbench/run.py` once in each checkout, for the
run length BENCHMARK.json fixes (`run_seconds`); the side that goes first
alternates from pair to pair, so a slow drift of the host does not favour
one side.  Every run's detail and result lines are kept, one JSON object
per run, in the --log file (and can be summarised again later with
--summarize).  Each record carries the workload, seed, run length, trace
flag and a session id, so a log that several sessions appended to is
summarised per (workload, seed, seconds, trace) group, with every run of
every session counted.

The summary reads the metrics (name, direction, bound) from
BENCHMARK.json: the end-to-end ones, and the per-layer ones a traced run
(--trace 1) reports, which have no bound.  Per group and metric it prints
the median and quartiles of each side, the change of the medians in
percent, how many pairs the change won, and two verdicts:

  claim  the group ran the way the benchmark does (its run length,
         untraced), at least 10 pairs ran, the change is better on at
         least 9 of every 10 of them, AND the gap between the medians is
         wider than the parent's interquartile range;
  bound  the change's median is worse than the parent's by more than the
         metric's bound.

Standard library only.  Exits 1 when a run fails or the self-test fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 1200


def load_benchmark(path):
    """(metric specs, run seconds) from BENCHMARK.json: the end-to-end then
    the per-layer specs, in file order."""
    with open(path, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return (benchmark["end_to_end"] + benchmark.get("per_layer", []),
            benchmark["run_seconds"])


def run_side(checkout, args, seconds):
    """One perfbench run in `checkout`: (detail, result) from its last two
    stdout lines.  Build output stays on stderr."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench run in {checkout} failed "
                           f"(exit {done.returncode})")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


GROUP_FIELDS = ("workload", "seed", "seconds", "trace")


def summarize_group(records, metrics, claimable):
    """Per-metric rows from one group's run records ({"session", "pair",
    "side", "result"}).  Pairs are keyed by (session, pair); only pairs
    with both sides present count.  `claimable` is whether the group ran
    the way the benchmark does."""
    by_pair = {}
    for record in records:
        key = (str(record.get("session")), record["pair"])
        by_pair.setdefault(key, {})[record["side"]] = record
    pairs = [sides for _, sides in sorted(by_pair.items())
             if "parent" in sides and "change" in sides]
    rows = []
    for spec in metrics:
        name = spec["name"]
        higher = spec["better"] == "higher"
        parent, change = [], []
        for sides in pairs:
            values = [sides[side]["result"]["metrics"].get(name, {})
                      .get("value") for side in ("parent", "change")]
            if None in values:
                continue
            parent.append(values[0])
            change.append(values[1])
        if not parent:
            continue
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        wins = sum(1 for p, c in zip(parent, change)
                   if (c > p if higher else c < p))
        gap = (c_med - p_med) if higher else (p_med - c_med)
        delta = (c_med - p_med) / p_med * 100.0 if p_med else 0.0
        worse = -gap / abs(p_med) if p_med else (1.0 if gap < 0 else 0.0)
        rows.append({
            "name": name, "n": len(parent),
            "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "delta_pct": delta, "wins": wins,
            "claim": (claimable and len(parent) >= 10
                      and 10 * wins >= 9 * len(parent)
                      and gap > p_q3 - p_q1),
            "over_bound": "bound" in spec and worse > spec["bound"],
        })
    return rows


def summarize(records, metrics, run_seconds):
    """[(group, claimable, rows)], one entry per (workload, seed, seconds,
    trace) group in sorted order.  A group is claimable when it ran for
    the benchmark's `run_seconds`, untraced."""
    groups = {}
    for record in records:
        group = tuple(record.get(field) for field in GROUP_FIELDS)
        groups.setdefault(group, []).append(record)
    summary = []
    for group in sorted(groups, key=lambda g: tuple(map(str, g))):
        fields = dict(zip(GROUP_FIELDS, group))
        claimable = fields["seconds"] == run_seconds and fields["trace"] == 0
        summary.append((group, claimable, summarize_group(
            groups[group], metrics, claimable)))
    return summary


def print_summary(summary, out=sys.stdout):
    for group, claimable, rows in summary:
        fields = dict(zip(GROUP_FIELDS, group))
        note = "" if claimable else (
            "  (not run as the benchmark runs: no claim verdict)")
        print(f"== {fields['workload']} seed {fields['seed']}, "
              f"{fields['seconds']} s, trace {fields['trace']}{note}",
              file=out)
        print_rows(rows, out)


def print_rows(rows, out):
    header = (f"{'metric':<18} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'delta':>8} {'wins':>6}  verdict")
    print(header, file=out)
    for row in rows:
        sides = ["/".join(f"{v:.4g}" for v in row[side])
                 for side in ("parent", "change")]
        verdict = []
        if row["claim"]:
            verdict.append("claim holds")
        if row["over_bound"]:
            verdict.append("OVER BOUND")
        print(f"{row['name']:<18} {sides[0]:>32} {sides[1]:>32} "
              f"{row['delta_pct']:>+7.1f}% {row['wins']:>3}/{row['n']:<2}  "
              f"{', '.join(verdict) or '-'}", file=out)


def fixture_records(session="s1", seed=1, seconds=30, trace=0):
    """Ten pairs of one session: items_per_s wins 9 of 10 by far more than
    the parent's IQR; step_us_p50 wins only 5; step_us_p90 wins all 10, by
    less than the parent's IQR; peak_rss_mib is 20% worse (bound 10%); the
    per-layer sim.sweep_ms is 50% worse but has no bound."""
    records = []
    for pair in range(10):
        parent = {"items_per_s": 100.0 + pair, "step_us_p50": 50.0,
                  "step_us_p90": 40.0 + 2 * pair, "peak_rss_mib": 10.0,
                  "sim.sweep_ms": 2.0}
        change = {"items_per_s": 120.0 + pair if pair else 99.0,
                  "step_us_p50": 49.0 if pair % 2 else 51.0,
                  "step_us_p90": 39.0 + 2 * pair, "peak_rss_mib": 12.0,
                  "sim.sweep_ms": 3.0}
        for side, values in (("parent", parent), ("change", change)):
            records.append({
                "session": session, "pair": pair, "side": side,
                "workload": "paper_offline", "seed": seed,
                "seconds": seconds, "trace": trace, "result": {
                    "metrics": {k: {"value": v} for k, v in values.items()}}})
    return records


def self_test():
    metrics = [{"name": "items_per_s", "better": "higher", "bound": 0.25},
               {"name": "step_us_p50", "better": "lower", "bound": 0.25},
               {"name": "step_us_p90", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
               {"name": "absent", "better": "lower", "bound": 0.1},
               {"name": "sim.sweep_ms", "better": "lower"}]

    def only_group(records, wanted=metrics):
        summary = summarize(records, wanted, 30)
        assert len(summary) == 1, summary
        return {row["name"]: row for row in summary[0][2]}

    rows = only_group(fixture_records())
    checks = [
        (sorted(rows), ["items_per_s", "peak_rss_mib", "sim.sweep_ms",
                        "step_us_p50", "step_us_p90"]),
        (rows["items_per_s"]["parent"], (102.25, 104.5, 106.75)),
        (rows["items_per_s"]["change"], (122.25, 124.5, 126.75)),
        (rows["items_per_s"]["wins"], 9),
        (rows["items_per_s"]["claim"], True),
        (rows["items_per_s"]["over_bound"], False),
        (round(rows["items_per_s"]["delta_pct"], 6),
         round(20 / 104.5 * 100, 6)),
        (rows["step_us_p50"]["wins"], 5),
        (rows["step_us_p50"]["claim"], False),
        (rows["step_us_p50"]["delta_pct"], 0.0),
        (rows["step_us_p90"]["wins"], 10),
        (rows["step_us_p90"]["claim"], False),
        (rows["peak_rss_mib"]["wins"], 0),
        (rows["peak_rss_mib"]["over_bound"], True),
        (rows["peak_rss_mib"]["delta_pct"], 20.0),
        (rows["sim.sweep_ms"]["delta_pct"], 50.0),
        (rows["sim.sweep_ms"]["over_bound"], False),
    ]
    # An unpaired run is ignored, a pair only counts when complete, and
    # nine pairs are too few for a claim.
    partial = only_group(fixture_records()[:-1], metrics[:1])["items_per_s"]
    checks += [(partial["n"], 9), (partial["wins"], 8),
               (partial["claim"], False)]
    # Two sessions appended to one log, both numbering their pairs from 0:
    # every run of both counts.
    both = only_group(fixture_records("s1") + fixture_records("s2"),
                      metrics[:1])["items_per_s"]
    checks += [(both["n"], 20), (both["wins"], 18),
               (both["parent"][1], 104.5), (both["claim"], True)]
    # Other seeds, run lengths and trace values are kept apart, and only
    # the benchmark's run length, untraced, can carry a claim.
    mixed = summarize(fixture_records(seed=1) + fixture_records(seed=5)
                      + fixture_records(seconds=20)
                      + fixture_records(trace=1), metrics[:1], 30)
    checks += [
        ([(group, claimable) for group, claimable, _ in mixed],
         [(("paper_offline", 1, 20, 0), False),
          (("paper_offline", 1, 30, 0), True),
          (("paper_offline", 1, 30, 1), False),
          (("paper_offline", 5, 30, 0), True)]),
        ([(rows[0]["n"], rows[0]["claim"]) for _, _, rows in mixed],
         [(10, False), (10, True), (10, False), (10, True)]),
    ]
    failed = [(got, want) for got, want in checks if got != want]
    for got, want in failed:
        print(f"perf_pairs self-test: got {got!r}, want {want!r}",
              file=sys.stderr)
    print_summary(mixed)
    print("perf_pairs self-test:", "FAILED" if failed else "ok")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the baseline")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--log", help="append every run's record here")
    parser.add_argument("--summarize", metavar="LOG",
                        help="summarise a kept log instead of running")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    metrics, seconds = load_benchmark(args.benchmark)
    if args.summarize:
        with open(args.summarize, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        print_summary(summarize(records, metrics, seconds))
        return 0
    if not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    session = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()) + \
        f"-{os.getpid()}"
    log = open(args.log, "a", encoding="utf-8") if args.log else None
    records = []
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else (
                "change", "parent")
            for side in order:
                detail, result = run_side(getattr(args, side), args, seconds)
                record = {"session": session, "pair": pair, "side": side,
                          "workload": args.workload, "seed": args.seed,
                          "seconds": seconds, "trace": args.trace,
                          "detail": detail["detail"], "result": result}
                records.append(record)
                if log:
                    log.write(json.dumps(record) + "\n")
                    log.flush()
                value = result["metrics"].get("items_per_s", {}).get("value")
                print(f"pair {pair} {side}: items_per_s {value}",
                      file=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"perf_pairs: {error}", file=sys.stderr)
        return 1
    finally:
        if log:
            log.close()
    print_summary(summarize(records, metrics, seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
