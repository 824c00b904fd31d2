#!/usr/bin/env python3
"""Steadiness self-check of the wire benchmark.

    python3 wirebench/steady.py --runs 10
    python3 wirebench/steady.py --runs 5 --workloads scan_large --out a.json
    python3 wirebench/steady.py --runs 10 --against a.json

Runs each workload k times through wirebench/run.py, each run with its own
seed (seed-base, seed-base + 1, ...), and prints for every end-to-end
metric its median, first and third quartile (statistics.quantiles, n=4)
and spread = (q3 - q1) / median. Fails (exit 1) when a run fails, or when a
metric's spread exceeds its bound in BENCHMARK.json; setup_s is exempt, as
its runs differ mostly by page-fault cost. With --against, it also fails
when a median, setup_s's included, is worse than the earlier summary's
median by more than the bound: two sets of runs of the same code must agree.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPREAD_EXEMPT = {"setup_s"}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "wirebench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", help="write the per-metric summary here (JSON)")
    ap.add_argument("--against", help="summary of an earlier set to compare with")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    earlier = json.loads(pathlib.Path(args.against).read_text()) if args.against else {}

    ok = True
    summary = {}
    for w in workloads:
        values = {name: [] for name in metrics}
        for k in range(args.runs):
            seed = args.seed_base + k
            got = run_once(w, seed, seconds)
            if got is None:
                print(f"{w}: run with seed {seed} failed")
                ok = False
                continue
            for name in metrics:
                values[name].append(got[name])
            print(f"{w} seed={seed}: " +
                  " ".join(f"{n}={got[n]:.6g}" for n in metrics), flush=True)
        summary[w] = {}
        print(f"\n{w}: {args.runs} runs")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, m in metrics.items():
            v = values[name]
            if len(v) < 2:
                ok = False
                continue
            med, q1, q3, s = spread(v)
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": s}
            if name in SPREAD_EXEMPT:
                verdict = "spread not gated"
            elif s <= m["bound"]:
                verdict = "ok"
            else:
                verdict = "TOO NOISY"
                ok = False
            prev = earlier.get(w, {}).get(name)
            if prev is not None:
                worse = (med - prev["median"]) / prev["median"]
                if m["better"] == "higher":
                    worse = -worse
                verdict += f", vs earlier {worse:+.2%}"
                if worse > m["bound"]:
                    verdict += " WORSE"
                    ok = False
            print(f"  {name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:8.4f} {m['bound']:6.3f}  {verdict}")
        print(flush=True)

    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
