#!/usr/bin/env python3
"""Build and run the wire benchmark from the root of a source tree.

    python3 wirebench/run.py --workload short_hot --seed 1 --seconds 25 --trace 0

Builds the simddb library and the load generator (wirebench/CMakeLists.txt)
into $CARGO_TARGET_DIR (default .bench_build) on first use, runs the
benchmark's self-test, then runs one measurement. The load generator prints
a provenance header and every metric by name and unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero when the build or self-test fails, or
when any query returned a wrong result.

Seeds: 1 is the default; 9001 is held out for checking a later claim on
inputs that were not used while the change was written.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

DEFAULT_SEED = 1
WORKLOADS = ("short_hot", "scan_large", "packed_window")

HERE = pathlib.Path(__file__).resolve().parent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_id(root):
    """Commit of the tree when it is a git checkout, else a digest of the
    sources the benchmark builds (src/ and wirebench/)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for sub in ("src", "wirebench", "CMakeLists.txt"):
        base = root / sub
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def clean_env():
    # The stack reads SIMDDB_* knobs (threads, metrics, admission, huge
    # pages) from the environment; the benchmark pins its own settings.
    return {k: v for k, v in os.environ.items() if not k.startswith("SIMDDB_")}


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    env = clean_env()
    # Keep the compiler's temporary files inside the build tree too.
    env["TMPDIR"] = str(build_dir / "tmp")
    (build_dir / "tmp").mkdir(exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if cfg.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
         "wirebench", "wirebench_selftest"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if made.returncode != 0:
        return False
    test = subprocess.run([str(build_dir / "wirebench_selftest")],
                          stdout=sys.stderr, stderr=sys.stderr, env=env)
    return test.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    out_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_dir.is_absolute():
        out_dir = root / out_dir
    build_dir = out_dir / "wirebench"
    if not build(build_dir):
        log("wirebench: build or self-test failed")
        return 2

    # Relative to the working directory: a Unix socket path is limited to
    # 107 bytes, and the tree may sit under a long path.
    sock = os.path.relpath(out_dir / f"wirebench-{os.getpid()}.sock", root)
    cmd = [str(build_dir / "wirebench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--socket", sock,
           "--commit", source_id(root)]
    if args.trace:
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, env=clean_env(), cwd=root)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
