#!/usr/bin/env python3
"""Soft perf gate over pmafia-bench-v1 JSONL trajectories.

Compares fresh bench rows against committed baseline rows and warns when
phase throughput regressed beyond the tolerance.  Throughput of one row
is computed from the wrapped pmafia-report-v1 document as

    records * max(1, len(levels)) / phase_max_seconds

where the gated phase is "join" for rows of the join bench (whose metric
is dense-unit pair work per second) and "populate" for everything else
(the populate phase scans every record once per level, so the metric is
record-level passes per second; for kernel-micro rows with no levels the
factor is 1 and the metric degenerates to records per second).

Rows are grouped by (bench, tag); the newest fresh row per group is
compared against the best baseline row of the same group — comparing
against the best, not the mean, keeps the gate one-sided: a lucky baseline
tightens it, a noisy one never loosens it.

Besides the soft throughput comparison, --speedup declares HARD intra-run
ratio gates of the form BENCH:TAG_NUM:TAG_DEN:MIN: the newest fresh rows
of (BENCH, TAG_DEN) and (BENCH, TAG_NUM) must satisfy

    total_seconds(TAG_DEN) / total_seconds(TAG_NUM) >= MIN

Both rows come from the same fresh run on the same machine, so the ratio
is machine-independent and a violation fails the gate (exit 1) even
without --strict.  For example, to require the bucketed join to run at
least 2x faster than the pairwise one on the 5000-unit micro case:
    --speedup join:micro-clustered-n=5000-kernel=bucketed:micro-clustered-n=5000-kernel=pairwise:2.0

Serving-path rows wrap a "pmafia-serve-v1" report instead of the batch
report (no records/phases, so the throughput comparison skips them).
--serve declares HARD absolute floors of the form BENCH:TAG:MIN_QPS:MAX_P99_MS:
the newest fresh row of (BENCH, TAG) must satisfy

    report.queries_per_second >= MIN_QPS
    report.latency_ms.p99     <= MAX_P99_MS

Like --speedup, a violation fails the gate even without --strict.  The
floors are set an order of magnitude below healthy numbers, so they catch
structural regressions (accidental serialization, busy-wait, per-row
allocation) rather than machine speed.

--append declares HARD gates of the form BENCH:TAG_INC:TAG_FULL:MIN for
the incremental-append bench: the total_seconds ratio TAG_FULL/TAG_INC
must reach MIN (the incremental run beats the full rebuild) AND the
TAG_INC row's report.append.levels_reused must be >= 1 (the level-reuse
memo actually engaged — without this clause a memo that silently stopped
engaging would pass the ratio gate whenever both sides do the same work).

Exit status: 0 when everything passes or only warnings were produced (the
gate is soft by default: CI prints the warning but does not fail the
build); 1 with --strict when any group regressed beyond tolerance, or
always when a --speedup gate fails; 2 on usage/parse errors.  Groups
present only on one side are reported but never fail the gate (new
benches seed their baselines through normal commits).
"""

import argparse
import json
import sys


def load_rows(path):
    """Parses a pmafia-bench-v1 JSON-Lines file into a list of dicts."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as e:
                    raise SystemExit(f"{path}:{lineno}: bad JSON: {e}")
                if row.get("schema") != "pmafia-bench-v1":
                    raise SystemExit(
                        f"{path}:{lineno}: unexpected schema {row.get('schema')!r}")
                rows.append(row)
    except OSError as e:
        raise SystemExit(f"cannot read {path}: {e}")
    return rows


def throughput(row):
    """Record-level passes per second for one bench row, or None."""
    report = row.get("report", {})
    records = report.get("records", 0)
    levels = report.get("levels", [])
    phase_name = "join" if row.get("bench") == "join" else "populate"
    seconds = next((p.get("max_seconds", 0.0)
                    for p in report.get("phases", [])
                    if p.get("name") == phase_name), 0.0)
    if not records or seconds <= 0.0:
        return None
    return records * max(1, len(levels)) / seconds


def group_rows(rows):
    """(bench, tag) -> list of throughputs, in file order."""
    groups = {}
    for row in rows:
        tp = throughput(row)
        if tp is None:
            continue
        groups.setdefault((row.get("bench", "?"), row.get("tag", "")), []).append(tp)
    return groups


def group_totals(rows):
    """(bench, tag) -> newest report.total_seconds, for --speedup gates."""
    totals = {}
    for row in rows:
        total = row.get("report", {}).get("total_seconds", 0.0)
        if total > 0.0:
            totals[(row.get("bench", "?"), row.get("tag", ""))] = total
    return totals


def check_speedups(specs, totals):
    """Evaluates BENCH:TAG_NUM:TAG_DEN:MIN specs; returns failure count."""
    failures = 0
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 4:
            raise SystemExit(f"--speedup {spec!r}: want BENCH:TAG_NUM:TAG_DEN:MIN")
        bench, tag_num, tag_den, min_str = parts
        try:
            minimum = float(min_str)
        except ValueError:
            raise SystemExit(f"--speedup {spec!r}: bad minimum {min_str!r}")
        num = totals.get((bench, tag_num))
        den = totals.get((bench, tag_den))
        if num is None or den is None:
            failures += 1
            missing = tag_num if num is None else tag_den
            print(f"speedup gate {spec}: FAIL (no fresh row for "
                  f"({bench}, {missing}))")
            continue
        ratio = den / num
        verdict = "ok" if ratio >= minimum else "FAIL"
        if verdict == "FAIL":
            failures += 1
        print(f"speedup gate {bench}: {tag_den} / {tag_num} = "
              f"{den:.3f}s / {num:.3f}s = {ratio:.2f}x "
              f"(require >= {minimum:.2f}x)  {verdict}")
    return failures


def serve_reports(rows):
    """(bench, tag) -> newest wrapped pmafia-serve-v1 report."""
    latest = {}
    for row in rows:
        report = row.get("report", {})
        if report.get("schema") == "pmafia-serve-v1":
            latest[(row.get("bench", "?"), row.get("tag", ""))] = report
    return latest


def check_serve(specs, reports):
    """Evaluates BENCH:TAG:MIN_QPS:MAX_P99_MS specs; returns failure count."""
    failures = 0
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 4:
            raise SystemExit(f"--serve {spec!r}: want BENCH:TAG:MIN_QPS:MAX_P99_MS")
        bench, tag, min_qps_str, max_p99_str = parts
        try:
            min_qps = float(min_qps_str)
            max_p99 = float(max_p99_str)
        except ValueError:
            raise SystemExit(f"--serve {spec!r}: bad threshold")
        report = reports.get((bench, tag))
        if report is None:
            failures += 1
            print(f"serve gate {spec}: FAIL (no fresh pmafia-serve-v1 row "
                  f"for ({bench}, {tag}))")
            continue
        qps = report.get("queries_per_second", 0.0)
        p99 = report.get("latency_ms", {}).get("p99", float("inf"))
        qps_ok = qps >= min_qps
        p99_ok = p99 <= max_p99
        if not (qps_ok and p99_ok):
            failures += 1
        print(f"serve gate {bench}:{tag}: "
              f"qps {qps:.0f} (require >= {min_qps:.0f}) "
              f"{'ok' if qps_ok else 'FAIL'}; "
              f"p99 {p99:.3f} ms (require <= {max_p99:.3f}) "
              f"{'ok' if p99_ok else 'FAIL'}")
    return failures


def batch_reports(rows):
    """(bench, tag) -> newest wrapped pmafia-report-v1 report."""
    latest = {}
    for row in rows:
        report = row.get("report", {})
        if report.get("schema") == "pmafia-report-v1":
            latest[(row.get("bench", "?"), row.get("tag", ""))] = report
    return latest


def check_append(specs, reports):
    """Evaluates BENCH:TAG_INC:TAG_FULL:MIN specs; returns failure count.

    The ratio clause mirrors --speedup: total_seconds(TAG_FULL) /
    total_seconds(TAG_INC) must reach MIN.  On top, the TAG_INC row's
    report.append object must show the run actually reused at least one
    level — a memo that silently stopped engaging would still pass a pure
    ratio gate on a machine where both sides end up doing identical work.
    """
    failures = 0
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 4:
            raise SystemExit(f"--append {spec!r}: want BENCH:TAG_INC:TAG_FULL:MIN")
        bench, tag_inc, tag_full, min_str = parts
        try:
            minimum = float(min_str)
        except ValueError:
            raise SystemExit(f"--append {spec!r}: bad minimum {min_str!r}")
        inc = reports.get((bench, tag_inc))
        full = reports.get((bench, tag_full))
        if inc is None or full is None:
            failures += 1
            missing = tag_inc if inc is None else tag_full
            print(f"append gate {spec}: FAIL (no fresh row for "
                  f"({bench}, {missing}))")
            continue
        inc_s = inc.get("total_seconds", 0.0)
        full_s = full.get("total_seconds", 0.0)
        ratio = full_s / inc_s if inc_s > 0.0 else 0.0
        reused = inc.get("append", {}).get("levels_reused", 0)
        ratio_ok = ratio >= minimum
        reuse_ok = reused >= 1
        if not (ratio_ok and reuse_ok):
            failures += 1
        print(f"append gate {bench}: {tag_full} / {tag_inc} = "
              f"{full_s:.3f}s / {inc_s:.3f}s = {ratio:.2f}x "
              f"(require >= {minimum:.2f}x) {'ok' if ratio_ok else 'FAIL'}; "
              f"levels reused {reused} (require >= 1) "
              f"{'ok' if reuse_ok else 'FAIL'}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="committed pmafia-bench-v1 JSONL baseline")
    ap.add_argument("--fresh", required=True,
                    help="freshly produced pmafia-bench-v1 JSONL rows")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="fractional throughput regression that triggers a "
                         "warning (default 0.15)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on regression instead of warning only")
    ap.add_argument("--speedup", action="append", default=[],
                    metavar="BENCH:TAG_NUM:TAG_DEN:MIN",
                    help="hard gate: newest fresh total_seconds ratio "
                         "TAG_DEN/TAG_NUM for BENCH must be >= MIN "
                         "(fails even without --strict; repeatable)")
    ap.add_argument("--serve", action="append", default=[],
                    metavar="BENCH:TAG:MIN_QPS:MAX_P99_MS",
                    help="hard gate: newest fresh pmafia-serve-v1 row of "
                         "(BENCH, TAG) must meet the qps floor and p99 "
                         "ceiling (fails even without --strict; repeatable)")
    ap.add_argument("--append", action="append", default=[], dest="append_gates",
                    metavar="BENCH:TAG_INC:TAG_FULL:MIN",
                    help="hard gate: like --speedup on TAG_FULL/TAG_INC, and "
                         "the TAG_INC row's report.append.levels_reused must "
                         "be >= 1 (fails even without --strict; repeatable)")
    args = ap.parse_args()

    baseline = group_rows(load_rows(args.baseline))
    fresh_raw = load_rows(args.fresh)
    fresh = group_rows(fresh_raw)
    # Serve rows carry no batch phases, so a serve-only fresh file is
    # legitimately empty for the throughput comparison.
    if not fresh and not args.serve:
        raise SystemExit(f"no usable rows in {args.fresh}")

    regressions = 0
    print(f"{'bench':<12} {'tag':<22} {'baseline':>12} {'fresh':>12} "
          f"{'ratio':>7}  verdict")
    for key in sorted(fresh):
        bench, tag = key
        fresh_tp = fresh[key][-1]
        if key not in baseline:
            print(f"{bench:<12} {tag:<22} {'-':>12} {fresh_tp:>12.3e} "
                  f"{'-':>7}  NEW (no baseline row)")
            continue
        base_tp = max(baseline[key])
        ratio = fresh_tp / base_tp
        if ratio < 1.0 - args.tolerance:
            regressions += 1
            verdict = f"REGRESSION (>{args.tolerance:.0%} below baseline)"
        else:
            verdict = "ok"
        print(f"{bench:<12} {tag:<22} {base_tp:>12.3e} {fresh_tp:>12.3e} "
              f"{ratio:>6.2f}x  {verdict}")
    for key in sorted(set(baseline) - set(fresh)):
        print(f"{key[0]:<12} {key[1]:<22} {'(baseline only, not re-run)'}")

    speedup_failures = 0
    if args.speedup:
        print()
        speedup_failures = check_speedups(args.speedup,
                                          group_totals(fresh_raw))
    serve_failures = 0
    if args.serve:
        print()
        serve_failures = check_serve(args.serve, serve_reports(fresh_raw))
    append_failures = 0
    if args.append_gates:
        print()
        append_failures = check_append(args.append_gates,
                                       batch_reports(fresh_raw))

    if regressions:
        print(f"\nWARNING: {regressions} group(s) regressed beyond "
              f"{args.tolerance:.0%}.")
    if speedup_failures or serve_failures or append_failures:
        if speedup_failures:
            print(f"\nFAIL: {speedup_failures} speedup gate(s) violated.")
        if serve_failures:
            print(f"\nFAIL: {serve_failures} serve gate(s) violated.")
        if append_failures:
            print(f"\nFAIL: {append_failures} append gate(s) violated.")
        return 1
    if regressions:
        return 1 if args.strict else 0
    print("\nbench gate: all groups within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
