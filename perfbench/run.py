#!/usr/bin/env python3
"""Builds szsec and the perfbench binary from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload archive-hard --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The library is configured from the repository's own CMakeLists.txt and only
the module archives the benchmark links are built.  Build trees live under
$CARGO_TARGET_DIR when it is set (relative to the repository root), else
under .bench_build/.  Build output goes to <build>/build.log so that the
benchmark's result stays the last line of standard output.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LIB_TARGETS = ["szsec_service", "szsec_capi", "szsec_data"]
RUN_TIMEOUT_S = 175
JOBS = "4"


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def child_env():
    """The environment for builds and runs: temporary files (the
    compiler's among them) stay inside the build tree."""
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def run_logged(cmd, log):
    log.write(("$ " + " ".join(str(c) for c in cmd) + "\n").encode())
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                          env=child_env()).returncode


def build(targets):
    """Configures (once) and builds both trees; returns the bench tree."""
    out = build_root()
    out.mkdir(parents=True, exist_ok=True)
    lib, bench = out / "szsec", out / "perfbench"
    log_path = out / "build.log"
    steps = []
    if not (lib / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", ROOT, "-B", lib,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DSZSEC_BUILD_SHARED=OFF"])
    steps.append(["cmake", "--build", lib, "-j", JOBS, "--target", *LIB_TARGETS])
    if not (bench / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bench,
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DSZSEC_SOURCE_DIR={ROOT}",
                      f"-DSZSEC_BINARY_DIR={lib}"])
    steps.append(["cmake", "--build", bench, "-j", JOBS, "--target", *targets])
    with open(log_path, "wb") as log:
        for step in steps:
            if run_logged(step, log) != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.stderr.write(f"perfbench: build failed; see {log_path}\n")
                sys.exit(1)
    return bench


def run_workload(args):
    bench = build(["perfbench"])
    # Relative to the repository root, where the run starts: the service
    # socket lives in the work directory, and a Unix socket path must stay
    # under 108 bytes however deep the checkout is.
    out = Path(os.path.relpath(build_root(), ROOT))
    work = out / f"run-{os.getpid()}"
    cmd = [bench / "perfbench", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", work,
           "--spans", out / "spans"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    finally:
        shutil.rmtree(ROOT / work, ignore_errors=True)


def check_schema(bench):
    """BENCHMARK.json and the binary's metric table must agree exactly."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = json.loads(subprocess.run(
        [bench / "perfbench", "--schema"], check=True,
        capture_output=True, text=True).stdout)
    problems = []
    for kind in ("end_to_end", "per_layer"):
        want = {m["name"]: (m["unit"], m["better"]) for m in declared[kind]}
        have = {m["name"]: (m["unit"], m["better"]) for m in table[kind]}
        if want != have:
            problems.append(f"{kind}: BENCHMARK.json {sorted(want.items())} "
                            f"!= binary {sorted(have.items())}")
    names = [w["name"] for w in declared["workloads"]]
    if names != table["workloads"]:
        problems.append(f"workloads: {names} != {table['workloads']}")
    for problem in problems:
        sys.stderr.write("perfbench: schema mismatch: " + problem + "\n")
    return not problems


def selftest():
    bench = build(["perfbench", "perfbench_selftest"])
    started = time.monotonic()
    rc = subprocess.run([bench / "perfbench_selftest"]).returncode
    ok = rc == 0 and check_schema(bench)
    print(f"perfbench selftest: {'ok' if ok else 'FAILED'} "
          f"({time.monotonic() - started:.1f} s)")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
