#!/usr/bin/env python3
"""Counter-driven benchmark regression gate.

Validates JSONL benchmark rows (bench_common.h's --json output) against
per-bench baseline ranges:

    python3 scripts/check_bench_ranges.py scripts/bench_baselines.json \
        smoke.jsonl fig13.jsonl

Baselines are a JSON list of entries:

    {
      "name": "human-readable id",
      "name_re": "^BM_Shuffle/5/1[23]$",   # matched against row["name"]
      "variant_re": "^swwc_scalar$",       # optional, row["variant"]
      "require": true,                     # fail if nothing matched
      "metrics": {
        "wc_line_flushes": {"min": 4e5, "max": 5e6, "per_iteration": true}
      }
    }

With "per_iteration" the metric is divided by the row's iteration count
first. With "div_by": "<other_metric>" the metric is divided by that
metric of the SAME row before the range check (after any per_iteration
scaling of the numerator) — e.g. a per-phase time ratio
part_hist_ns / part_shuffle_ns. A missing or non-positive denominator is
a failure on matched rows, like a missing metric — unless the range sets
"zero_denom": "skip", which silently skips the check on rows where the
denominator can legitimately be 0 (a counter only some rows of the
family increment).

An entry may instead hold a cross-row comparison:

    {
      "name": "packed-not-slower-than-raw",
      "compare": {
        "target_name_re": "^BM_ExecQueryCompressed/[02]/77/[18]/1/",
        "target_variant_re": "_compressed$",
        "baseline_name_re": "^BM_ExecQueryCompressed/[02]/77/[18]/0/",
        "baseline_variant_re": "_raw$",
        "group_by": ["isa", "sel", "threads"],
        "metric": "real_time",
        "max_ratio": 1.0
      },
      "require": true
    }

Every target row's metric is compared against the MINIMUM of the baseline
rows sharing the same group_by field values (fields compared as strings);
the row fails when target / min(baselines) exceeds max_ratio. Target rows
whose group has no baseline row are skipped (smoke runs gate subsets);
"require" fails the entry when no target row matched at all.

The plain range checks are deliberately WIDE, structural checks ("the SWWC
shuffle flushed roughly 2*n/16 lines", "the planner planned at least one
pass"), not tight performance assertions: google-benchmark's warmup
iterations are included in the counter deltas but not in `iterations`, so
per-iteration values can legitimately sit 2-3x above nominal. The gate
exists to catch structural drift — a kernel silently falling back to the
non-streaming path, a planner splitting into the wrong number of passes, a
counter that stopped being incremented — not a few percent of throughput.

Exit status: 0 when every matched row is in range and every required
baseline matched at least one row; 1 otherwise.
"""

import argparse
import json
import re
import sys


def load_rows(paths):
    rows = []
    for path in paths:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append((f"{path}:{lineno}", json.loads(line)))
                except json.JSONDecodeError as e:
                    raise SystemExit(f"{path}:{lineno}: invalid JSON: {e}")
    return rows


def check_compare(entry, rows):
    """Cross-row gate: each target row vs the best baseline row of its
    group. Returns (matched_target_rows, failures)."""
    spec = entry["compare"]
    t_name = re.compile(spec["target_name_re"])
    t_var = re.compile(spec.get("target_variant_re", ""))
    b_name = re.compile(spec["baseline_name_re"])
    b_var = re.compile(spec.get("baseline_variant_re", ""))
    group_by = spec.get("group_by", [])
    metric = spec["metric"]
    max_ratio = float(spec["max_ratio"])
    failures = []

    def key_of(row):
        return tuple(str(row.get(f)) for f in group_by)

    best = {}  # group key -> (value, variant, name)
    for _, row in rows:
        if not b_name.search(row.get("name", "")):
            continue
        if "baseline_variant_re" in spec and not b_var.search(
                row.get("variant", "")):
            continue
        if metric not in row:
            continue
        value = float(row[metric])
        key = key_of(row)
        if key not in best or value < best[key][0]:
            best[key] = (value, row.get("variant"), row.get("name"))

    matched = 0
    for where, row in rows:
        if not t_name.search(row.get("name", "")):
            continue
        if "target_variant_re" in spec and not t_var.search(
                row.get("variant", "")):
            continue
        matched += 1
        if metric not in row:
            failures.append(
                f"{where}: [{entry['name']}] missing metric '{metric}' "
                f"(row: {row.get('name')})")
            continue
        key = key_of(row)
        if key not in best or best[key][0] <= 0:
            print(f"[{entry['name']}] no baseline row for "
                  f"{dict(zip(group_by, key))}; target row skipped")
            continue
        best_value, best_variant, _ = best[key]
        ratio = float(row[metric]) / best_value
        if ratio > max_ratio:
            failures.append(
                f"{where}: [{entry['name']}] {metric}={float(row[metric]):g} "
                f"is {ratio:.3f}x the best baseline "
                f"({best_variant}: {best_value:g}) for "
                f"{dict(zip(group_by, key))}, above max_ratio={max_ratio:g}")
    return matched, failures


def check(baselines, rows):
    failures = []
    for entry in baselines:
        if "compare" in entry:
            matched, entry_failures = check_compare(entry, rows)
            failures.extend(entry_failures)
            if entry.get("require", False) and matched == 0:
                failures.append(
                    f"[{entry['name']}] required but no target row matched "
                    f"name_re={entry['compare']['target_name_re']!r}")
            else:
                print(f"[{entry['name']}] compared {matched} row(s)")
            continue
        name_re = re.compile(entry["name_re"])
        variant_re = re.compile(entry.get("variant_re", ""))
        matched = 0
        for where, row in rows:
            if not name_re.search(row.get("name", "")):
                continue
            if "variant_re" in entry and not variant_re.search(
                    row.get("variant", "")):
                continue
            matched += 1
            iters = max(1, int(row.get("iterations", 1)))
            for metric, rng in entry.get("metrics", {}).items():
                if metric not in row:
                    failures.append(
                        f"{where}: [{entry['name']}] missing metric "
                        f"'{metric}' (row: {row.get('name')})")
                    continue
                value = float(row[metric])
                if rng.get("per_iteration", False):
                    value /= iters
                div_by = rng.get("div_by")
                if div_by is not None:
                    if div_by not in row:
                        failures.append(
                            f"{where}: [{entry['name']}] missing div_by "
                            f"metric '{div_by}' (row: {row.get('name')})")
                        continue
                    denom = float(row[div_by])
                    if denom <= 0:
                        if rng.get("zero_denom") == "skip":
                            continue
                        failures.append(
                            f"{where}: [{entry['name']}] div_by metric "
                            f"'{div_by}'={denom:g} not positive "
                            f"(row: {row.get('name')})")
                        continue
                    value /= denom
                lo = rng.get("min", float("-inf"))
                hi = rng.get("max", float("inf"))
                if not (lo <= value <= hi):
                    failures.append(
                        f"{where}: [{entry['name']}] {metric}="
                        f"{value:g} outside [{lo:g}, {hi:g}] "
                        f"(row: {row.get('name')})")
        if entry.get("require", False) and matched == 0:
            failures.append(
                f"[{entry['name']}] required but no row matched "
                f"name_re={entry['name_re']!r}")
        else:
            print(f"[{entry['name']}] checked {matched} row(s)")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baselines", help="baseline ranges JSON")
    ap.add_argument("jsonl", nargs="+", help="bench JSONL file(s)")
    ap.add_argument("--only", metavar="REGEX", default=None,
                    help="check only baseline entries whose name matches "
                         "(smoke jobs that run a subset of the bench "
                         "families gate just that subset)")
    args = ap.parse_args()

    with open(args.baselines) as f:
        baselines = json.load(f)
    if args.only:
        only = re.compile(args.only)
        baselines = [b for b in baselines if only.search(b["name"])]
        if not baselines:
            print(f"no baseline entry matches --only {args.only!r}",
                  file=sys.stderr)
            return 1
    rows = load_rows(args.jsonl)
    if not rows:
        print("no JSONL rows found", file=sys.stderr)
        return 1

    failures = check(baselines, rows)
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} baseline violation(s)", file=sys.stderr)
        return 1
    print(f"all {len(rows)} row(s) within baseline ranges")
    return 0


if __name__ == "__main__":
    sys.exit(main())
