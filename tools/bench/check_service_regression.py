#!/usr/bin/env python3
"""Bench smoke gate: compare a fresh `service` micro-benchmark run against
the committed BENCH_recognition.json baseline.

Usage:
    check_service_regression.py BASELINE.json CANDIDATE.json [--tolerance 0.30]

A service row regresses when its queries_per_sec falls more than
`tolerance` (default 30 %) below the committed baseline row with the same
(mode, threads, shards, batch) key. Faster is always fine: the gate only
exists to catch throughput cliffs, not to pin exact numbers. The committed
baseline holds per-row medians of three runs on a 4-core x86-64 VM (g++
12.2, Release); single runs there spread up to 1.8x per row, which the
tolerance has to absorb. Rows with threads or shards > 1 assume the runner
has about 4 real cores.

The candidate must also carry a `pipeline` per-stage breakdown section
with at least one row whose stage times sum to its total (sanity that the
fused-pipeline instrumentation is alive), since a silently-zero breakdown
would make every future "where did the microseconds go" investigation
start from a lie.

Exit status: 0 clean, 1 regression or malformed input.
"""

import argparse
import json
import sys


def service_rows(doc, path):
    section = doc.get("service")
    if not isinstance(section, dict) or "rows" not in section:
        print(f"error: {path} has no service.rows section", file=sys.stderr)
        raise SystemExit(1)
    rows = {}
    for row in section["rows"]:
        key = (row["mode"], row["threads"], row["shards"], row["batch"])
        rows[key] = float(row["queries_per_sec"])
    return rows


def check_pipeline(doc, path):
    section = doc.get("pipeline")
    if not isinstance(section, dict) or not section.get("rows"):
        print(f"error: {path} has no pipeline breakdown rows", file=sys.stderr)
        return False
    ok = True
    for row in section["rows"]:
        stages = row["dac_us"] + row["gemm_us"] + row["wta_us"] + row["assemble_us"]
        total = row["total_us"]
        if total <= 0.0:
            print(f"error: pipeline row b={row['batch']} has non-positive total", file=sys.stderr)
            ok = False
        elif abs(stages - total) > 0.01 * max(total, 1.0):
            print(
                f"error: pipeline row b={row['batch']} stages sum to {stages:.3f} "
                f"but total is {total:.3f}",
                file=sys.stderr,
            )
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop vs baseline (default 0.30)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.candidate) as f:
        candidate = json.load(f)

    base_rows = service_rows(baseline, args.baseline)
    cand_rows = service_rows(candidate, args.candidate)

    failed = False
    for key, base_qps in sorted(base_rows.items()):
        mode, threads, shards, batch = key
        label = f"{mode} t={threads} shards={shards} b={batch}"
        if key not in cand_rows:
            print(f"FAIL {label}: row missing from candidate run", file=sys.stderr)
            failed = True
            continue
        cand_qps = cand_rows[key]
        floor = (1.0 - args.tolerance) * base_qps
        verdict = "ok"
        if cand_qps < floor:
            verdict = "REGRESSION"
            failed = True
        print(f"{verdict:>10}  {label}: {cand_qps:,.1f} q/s vs baseline "
              f"{base_qps:,.1f} (floor {floor:,.1f})")

    if not check_pipeline(candidate, args.candidate):
        failed = True

    if failed:
        print("bench smoke: service rows regressed beyond tolerance", file=sys.stderr)
        return 1
    print("bench smoke: all service rows within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
