#!/usr/bin/env python3
"""Paired A/B runs of the wire benchmark: a parent commit against a change.

    python3 scripts/ab.py --parent <git-ref> [--change <dir>] \\
        --workloads short_hot,scan_large,packed_window --pairs 10 [--seed 9001]

Extracts <git-ref> with `git archive` and runs wirebench/run.py in it and in
the change tree (default: the current directory), each side with its own
CARGO_TARGET_DIR, for --pairs alternating pairs per workload: odd pairs run
the parent first, even pairs the change. Each run lasts BENCHMARK.json's
run_seconds. The parent tree and both build trees live under
$TMPDIR/simddb-ab and are reused by later invocations; the benchmark's
build step is incremental, so an edited change tree is rebuilt.

Prints every pair, then for each workload and end-to-end metric of
BENCHMARK.json each side's median and quartiles (statistics.quantiles,
n=4), the change's win count (direction from the metric's `better`) and a
verdict:

  gain           the change wins at least 9/10 of the pairs, and its median
                 is better than the parent's by more than the parent's IQR
                 and by more than half the metric's `bound`;
  regression     the change's median is worse than the parent's by more than
                 the metric's `bound` (a fraction of the parent's median);
  unresolved     a side's IQR exceeds `bound` times its median, and not every
                 change run beats every parent run;
  no-regression  anything else.

Exits 1 on any regression or any failed or incorrect run, 2 on a usage or
setup error.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GAIN_WINS = 0.9  # share of pairs the change must win for a gain
# Smallest gain, as a share of the metric's bound. Some metrics barely vary
# within a build yet shift between builds: two checkouts of one commit read
# rss_mb 0.8% apart in every pair, and moving a checkout shifted it by 3.7%.
# Such a shift wins every pair and clears the parent's IQR, yet says
# nothing about the change.
GAIN_MIN_SHARE_OF_BOUND = 0.5


def quartiles(values):
    """(median, q1, q3) with the quartile method wirebench/steady.py uses."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def rel_iqr(values):
    med, q1, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def beats(a, b, better):
    """True when value a is strictly better than value b."""
    return a > b if better == "higher" else a < b


def verdict(parent, change, better, bound):
    """Verdict on one metric of one workload. parent[i] and change[i] are
    the two runs of pair i. Returns (verdict, wins)."""
    assert len(parent) == len(change) and parent
    wins = sum(beats(c, p, better) for p, c in zip(parent, change))
    p_med, p_q1, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gap = c_med - p_med if better == "higher" else p_med - c_med
    if -gap > bound * abs(p_med):
        return "regression", wins
    if (wins >= GAIN_WINS * len(parent) and gap > p_q3 - p_q1
            and gap > GAIN_MIN_SHARE_OF_BOUND * bound * abs(p_med)):
        return "gain", wins
    dominated = all(beats(c, p, better) for c in change for p in parent)
    if max(rel_iqr(parent), rel_iqr(change)) > bound and not dominated:
        return "unresolved", wins
    return "no-regression", wins


def extract(ref, work):
    """Extracts commit `ref` of this repository into work/parent-<sha>."""
    sha = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    tree = work / f"parent-{sha[:12]}"
    done = tree / ".ab-extracted"
    if not done.exists():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode, "git archive")
        done.touch()
    return sha, tree


def run_once(tree, target, workload, seed, seconds):
    """One wirebench run; returns {metric: value}, or None when the run
    failed or returned a wrong result."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    proc = subprocess.run(
        [sys.executable, str(tree / "wirebench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def fmt(v):
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent")
    ap.add_argument("--change", default=".", help="change tree (default .)")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated wirebench workloads")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    change = pathlib.Path(args.change).resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = [w for w in args.workloads.split(",") if w]
    known = {w["name"] for w in bench["workloads"]}
    if not workloads or not set(workloads) <= known:
        ap.error(f"--workloads must name some of {sorted(known)}")

    work = pathlib.Path(tempfile.gettempdir()) / "simddb-ab"
    try:
        sha, parent = extract(args.parent, work)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"ab: cannot extract {args.parent}: {e}", file=sys.stderr)
        return 2
    change_key = hashlib.sha256(str(change).encode()).hexdigest()[:12]
    sides = {
        "parent": (parent, work / f"target-parent-{sha[:12]}"),
        "change": (change, work / f"target-change-{change_key}"),
    }
    print(f"parent {sha} in {parent}")
    print(f"change {change}")
    print(f"seed {args.seed}, {args.pairs} pairs x {seconds} s per workload")

    failed = 0
    counts = {}
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                tree, target = sides[side]
                got[side] = run_once(tree, target, w, args.seed, seconds)
            if got["parent"] is None or got["change"] is None:
                failed += 1
                print(f"{w} pair {i + 1}: FAILED "
                      f"(parent {'ok' if got['parent'] else 'failed'}, "
                      f"change {'ok' if got['change'] else 'failed'})",
                      flush=True)
                continue
            for side in runs:
                runs[side].append(got[side])
            cells = "  ".join(
                f"{m['name']} {fmt(got['parent'][m['name']])}/"
                f"{fmt(got['change'][m['name']])}" for m in metrics)
            print(f"{w} pair {i + 1} ({order[0]} first, parent/change): "
                  f"{cells}", flush=True)
        if not runs["parent"]:
            continue
        n = len(runs["parent"])
        print(f"\n{w}: {n} pairs")
        print(f"  {'metric':<20} {'better':<6} {'parent med [q1, q3]':<30} "
              f"{'change med [q1, q3]':<30} {'wins':<6} verdict")
        for m in metrics:
            name = m["name"]
            p = [r[name] for r in runs["parent"]]
            c = [r[name] for r in runs["change"]]
            v, wins = verdict(p, c, m["better"], m["bound"])
            counts[v] = counts.get(v, 0) + 1
            ps = "{} [{}, {}]".format(*map(fmt, quartiles(p)))
            cs = "{} [{}, {}]".format(*map(fmt, quartiles(c)))
            print(f"  {name:<20} {m['better']:<6} {ps:<30} {cs:<30} "
                  f"{wins}/{n:<4} {v}")
        print(flush=True)

    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
          + f"; failed pairs {failed}")
    return 1 if failed or counts.get("regression") else 0


if __name__ == "__main__":
    sys.exit(main())
