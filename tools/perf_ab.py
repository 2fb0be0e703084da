#!/usr/bin/env python3
"""Interleaved A/B of two revisions on the end-to-end benchmark.

Exports each revision with `git archive` into a temporary directory outside
the repository (WORKTREE names the working tree: tracked and untracked,
non-ignored files as they are on disk) and builds each once.  Then, per
workload, it runs N pairs through perfbench/run.py unchanged, seed s, s+1,
..., alternating which side runs first, each run BENCHMARK.json's
run_seconds long.  For each metric it prints each side's median and
quartiles, the pairs the head side won (ties count for neither) and the
change of the medians; for the end-to-end metrics also the BENCHMARK.json
bound verdict (unresolved where the runs spread wider than the bound), and
whether `ratio` was identical in every pair.  A `--claim
workload/metric` holds when at least 10 pairs ran, the head side won at
least 9 in 10 of all the pairs run (a pair whose head run failed is not
won) and the medians differ, in the better direction, by more than the
base side's interquartile range.

Each workload's summary, with every run's value and the host probe, is
appended as one JSON line to bench/results/perfbench.jsonl.

Usage (from the repository root):

    python3 tools/perf_ab.py --base HEAD --head WORKTREE --pairs 10 \\
        --seed 20101 --claim archive-hard/decompress_mbps
    python3 tools/perf_ab.py --base HEAD~1 --head HEAD \\
        --workloads archive-hard --trace 1 --pairs 4 --seed 20201
    python3 tools/perf_ab.py --selftest

Exit status: 0 when every run was correct, every end-to-end metric is inside
its bound and every claim holds; 1 otherwise; 2 when a side could not be
exported or built.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results" / "perfbench.jsonl"
WORKTREE = "WORKTREE"
SIDES = ("base", "head")
MIN_CLAIM_PAIRS = 10


# ------------------------------------------------------------ statistics

def quartiles(values):
    """(q1, median, q3) of `values`, interpolating between order
    statistics (statistics.quantiles' inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def relative_change(base, head, better):
    """Signed change of head against base, positive when head is better."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if better == "higher" else -change


def summarize_metric(name, pairs, spec):
    """Summary of one metric over `pairs` (a list of {"base": v, "head": v}
    with both values present).  `spec` is its BENCHMARK.json entry."""
    base = [p["base"] for p in pairs]
    head = [p["head"] for p in pairs]
    better = spec["better"]
    b_q1, b_med, b_q3 = quartiles(base)
    h_q1, h_med, h_q3 = quartiles(head)
    won = sum(1 for b, h in zip(base, head)
              if (h > b if better == "higher" else h < b))
    ties = sum(1 for b, h in zip(base, head) if h == b)
    change = relative_change(b_med, h_med, better)
    out = {
        "unit": spec["unit"],
        "better": better,
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3, "runs": base},
        "head": {"median": h_med, "q1": h_q1, "q3": h_q3, "runs": head},
        "won": won,
        "ties": ties,
        "pairs": len(pairs),
        "change": change,
    }
    if "bound" in spec:
        out["bound"] = spec["bound"]
        out["verdict"] = bound_verdict(base, head, b_med, change, spec)
    return out


def bound_verdict(base, head, base_median, change, spec):
    """"over bound" when the head median is worse than the base median by
    more than the bound; else "unresolved" when either side's
    interquartile range is wider than the bound (relative to the base
    median), unless every head run is better than every base run; else
    "ok"."""
    if -change > spec["bound"]:
        return "over bound"
    spread = max(q3 - q1 for q1, _, q3 in (quartiles(base), quartiles(head)))
    if base_median != 0 and spread / abs(base_median) > spec["bound"]:
        if spec["better"] == "higher":
            all_better = min(head) > max(base)
        else:
            all_better = max(head) < min(base)
        if not all_better:
            return "unresolved"
    return "ok"


def claim_holds(runs, name, summary):
    """Whether a claim on metric `name` holds over `runs` (every pair run):
    at least MIN_CLAIM_PAIRS pairs, at least 9 in 10 of them won, and the
    medians apart, in the better direction, by more than the base side's
    interquartile range.  A pair whose head run failed, or where either
    run reported no value, is not won.  `summary` is the metric's
    summarize_metric result, or None when no pair reported it."""
    if summary is None or len(runs) < MIN_CLAIM_PAIRS:
        return False
    higher = summary["better"] == "higher"
    won = 0
    for run in runs:
        base = run["base"].get("metrics", {}).get(name)
        head = run["head"].get("metrics", {}).get(name)
        if (run["head"].get("correct") and base is not None
                and head is not None and (head > base if higher
                                          else head < base)):
            won += 1
    base = summary["base"]
    gain = summary["head"]["median"] - base["median"]
    if not higher:
        gain = -gain
    return won * 10 >= 9 * len(runs) and gain > base["q3"] - base["q1"]


def summarize_workload(workload, runs, schema, claims):
    """Summary of one workload's pairs.  `runs` is a list of
    {"seed", "first", "base": result, "head": result}, each result the
    parsed output of one perfbench run."""
    specs = {m["name"]: m for kind in ("end_to_end", "per_layer")
             for m in schema[kind]}
    kinds = {m["name"]: kind for kind in ("end_to_end", "per_layer")
             for m in schema[kind]}
    names = []
    for run in runs:
        for side in SIDES:
            for name in run[side].get("metrics", {}):
                if name in specs and name not in names:
                    names.append(name)
    metrics = {}
    for name in names:
        pairs = [{"base": r["base"]["metrics"][name],
                  "head": r["head"]["metrics"][name]}
                 for r in runs
                 if name in r["base"].get("metrics", {})
                 and name in r["head"].get("metrics", {})]
        if pairs:
            metrics[name] = summarize_metric(name, pairs, specs[name])
            metrics[name]["kind"] = kinds[name]
    ratio = metrics.get("ratio")
    summary = {
        "workload": workload,
        "pairs": len(runs),
        "seeds": [r["seed"] for r in runs],
        "first": [r["first"] for r in runs],
        "correct": {side: sum(1 for r in runs if r[side].get("correct"))
                    for side in SIDES},
        "metrics": metrics,
        # None where the runs report no ratio (traced runs).
        "ratio_identical": (None if ratio is None
                            else ratio["ties"] == ratio["pairs"]),
        "probe": {side: probe_summary([r[side] for r in runs])
                  for side in SIDES},
        "claims": {},
    }
    for claim in claims:
        claimed_workload, _, metric = claim.partition("/")
        if claimed_workload == workload:
            summary["claims"][metric] = claim_holds(runs, metric,
                                                    metrics.get(metric))
    return summary


def probe_summary(results):
    """Median host probe (ALU and memory loop, ms) over the runs' start and
    end probes."""
    alu, mem = [], []
    for result in results:
        meta = result.get("meta", {})
        for key in ("probe_start", "probe_end"):
            probe = meta.get(key)
            if isinstance(probe, dict):
                alu.append(probe.get("alu_ms", 0.0))
                mem.append(probe.get("mem_ms", 0.0))
    if not alu:
        return {}
    return {"alu_ms": statistics.median(alu), "mem_ms": statistics.median(mem)}


def verdict_ok(summary):
    """Every run correct, every bound kept, every claim held."""
    pairs = summary["pairs"]
    return (all(summary["correct"][side] == pairs for side in SIDES)
            and all(m.get("verdict", "ok") == "ok"
                    for m in summary["metrics"].values())
            and all(summary["claims"].values()))


def format_summary(summary, header):
    lines = [header]
    width = max([len(n) for n in summary["metrics"]] + [6])
    lines.append(f"  {'metric':<{width}}  {'base median [q1, q3]':>28}  "
                 f"{'head median [q1, q3]':>28}  {'change':>8}  {'won':>6}  "
                 f"verdict")
    for name, m in summary["metrics"].items():
        cells = []
        for side in SIDES:
            s = m[side]
            cells.append(f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]")
        if name == "ratio":
            verdict = ("identical in every pair" if summary["ratio_identical"]
                       else f"identical in {m['ties']}/{m['pairs']} pairs")
            if "verdict" in m:
                verdict = f"{m['verdict']}, {verdict}"
        elif "verdict" in m:
            verdict = f"{m['verdict']} (bound {m['bound']:.0%})"
        else:
            verdict = ""
        if name in summary["claims"]:
            verdict += ("; claim holds" if summary["claims"][name]
                        else "; CLAIM FAILS")
        lines.append(f"  {name:<{width}}  {cells[0]:>28}  {cells[1]:>28}  "
                     f"{m['change']:>+8.1%}  {m['won']:>2}/{m['pairs']:<3}  "
                     f"{verdict}")
    correct = summary["correct"]
    probes = []
    for side in SIDES:
        probe = summary["probe"][side]
        probes.append(f"{side} alu {probe['alu_ms']:.1f} ms, mem "
                      f"{probe['mem_ms']:.1f} ms" if probe else f"{side} -")
    lines.append(f"  correct runs: base {correct['base']}/{summary['pairs']}, "
                 f"head {correct['head']}/{summary['pairs']}; host probe "
                 f"(median) {'; '.join(probes)}")
    return "\n".join(lines)


# ---------------------------------------------------------------- runner

def parse_output(stdout):
    """The result JSON (the last line) of one run, its metrics flattened to
    name: value, with the meta JSON under "meta"."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"]
                         for name, m in result.get("metrics", {}).items()}
    for line in lines:
        if line.startswith("meta "):
            result["meta"] = json.loads(line[len("meta "):])
    return result


def git(*args, **kw):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, **kw).stdout


def export(rev, dest):
    """Writes revision `rev` (or the working tree) into `dest`; returns
    the commit it names, or WORKTREE with the HEAD commit it is based on."""
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        files = git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split(b"\0")
        for name in files:
            if not name:
                continue
            src = ROOT / os.fsdecode(name)
            if src.is_file():
                target = dest / os.fsdecode(name)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, target)
        head = git("rev-parse", "HEAD", text=True).strip()
        return f"{WORKTREE} on {head}"
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}",
                 text=True).strip()
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit],
                               cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"exporting {rev} failed")
    return commit


def child_env():
    """Each export builds in its own tree, at full dispatch."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    env.pop("SZSEC_CPU_FEATURES", None)
    return env


def build(tree):
    """Builds the export's benchmark once, through perfbench/run.py's own
    build function."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "run.build(['perfbench'])")
    return subprocess.run([sys.executable, "-c", code], cwd=tree,
                          env=child_env()).returncode == 0


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=child_env(),
                          capture_output=True, text=True)
    try:
        result = parse_output(proc.stdout)
    except ValueError as e:
        sys.stderr.write(proc.stderr[-2000:])
        result = {"correct": False, "metrics": {}, "error": str(e)}
    result["exit"] = proc.returncode
    return result


def host_info():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model or platform.processor(), "nproc": os.cpu_count(),
            "python": platform.python_version()}


def main_run(args):
    schema = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in schema["workloads"]])
    seconds = schema["run_seconds"]
    parent = Path(tempfile.gettempdir()).resolve()
    if parent == ROOT or ROOT in parent.parents:
        sys.stderr.write("perf_ab: the temporary directory must lie outside "
                         "the repository\n")
        return 2
    tmp = Path(tempfile.mkdtemp(prefix="perf_ab-", dir=parent))
    trees, revs = {}, {}
    try:
        for side in SIDES:
            trees[side] = tmp / side
            try:
                revs[side] = export(getattr(args, side), trees[side])
            except (subprocess.CalledProcessError, RuntimeError):
                sys.stderr.write(f"perf_ab: exporting {side} "
                                 f"{getattr(args, side)} failed\n")
                return 2
            print(f"perf_ab: {side} = {revs[side]}, building in "
                  f"{trees[side]}", flush=True)
            if not build(trees[side]):
                sys.stderr.write(f"perf_ab: building {side} failed; see "
                                 f"{trees[side] / '.bench_build/build.log'}\n")
                return 2
        ok = True
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                first = SIDES[i % 2]
                order = SIDES if first == "base" else SIDES[::-1]
                run = {"seed": seed, "first": first}
                for side in order:
                    run[side] = run_once(trees[side], workload, seed,
                                         seconds, args.trace)
                runs.append(run)
                print(f"perf_ab: {workload} pair {i + 1}/{args.pairs} "
                      f"(seed {seed}, {first} first) done", flush=True)
            summary = summarize_workload(workload, runs, schema, args.claim)
            summary.update({
                "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
                "base_rev": revs["base"],
                "head_rev": revs["head"],
                "seconds": seconds,
                "trace": args.trace,
                "host": host_info(),
                "note": args.note,
            })
            header = (f"{workload}: {args.pairs} pairs, seeds {args.seed}-"
                      f"{args.seed + args.pairs - 1}, {seconds} s, "
                      f"trace {args.trace}; base {revs['base']}, "
                      f"head {revs['head']}")
            print(format_summary(summary, header), flush=True)
            if not args.no_record:
                RESULTS.parent.mkdir(parents=True, exist_ok=True)
                with open(RESULTS, "a") as out:
                    out.write(json.dumps(summary, sort_keys=True) + "\n")
            ok = ok and verdict_ok(summary)
        return 0 if ok else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# -------------------------------------------------------------- selftest

def selftest():
    """Checks the summary arithmetic and output parsing on canned runs."""
    schema = {
        "end_to_end": [
            {"name": "decompress_mbps", "unit": "MB/s", "better": "higher",
             "bound": 0.25},
            {"name": "req_p50_ms", "unit": "ms", "better": "lower",
             "bound": 0.25},
            {"name": "ratio", "unit": "x", "better": "higher", "bound": 0.1},
        ],
        "per_layer": [
            {"name": "huffman.decode_s", "unit": "s", "better": "lower"},
        ],
    }
    meta = {"probe_start": {"alu_ms": 10.0, "mem_ms": 20.0},
            "probe_end": {"alu_ms": 12.0, "mem_ms": 22.0}}

    def result(mbps, p50, ratio):
        return {"correct": True, "meta": meta,
                "metrics": {"decompress_mbps": mbps, "req_p50_ms": p50,
                            "ratio": ratio}}

    base = [100, 104, 98, 102, 101, 99, 103, 97, 100, 105]
    head = [130, 128, 131, 101, 132, 129, 127, 133, 126, 100]
    runs = [{"seed": 7 + i, "first": SIDES[i % 2],
             "base": result(b, 2.0, 3.5),
             "head": result(h, 2.0 + (0.5 if i < 3 else -0.1), 3.5)}
            for i, (b, h) in enumerate(zip(base, head))]
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    s = summarize_workload("w", runs, schema, ["w/decompress_mbps",
                                               "w/req_p50_ms"])
    m = s["metrics"]["decompress_mbps"]
    check(m["base"]["median"] == 100.5, f"base median {m['base']['median']}")
    check((m["base"]["q1"], m["base"]["q3"]) == (99.25, 102.75),
          f"base quartiles {m['base']['q1']}, {m['base']['q3']}")
    check(m["head"]["median"] == 128.5, f"head median {m['head']['median']}")
    check(m["won"] == 8 and m["ties"] == 0, f"won {m['won']} ties {m['ties']}")
    check(abs(m["change"] - 28 / 100.5) < 1e-12, f"change {m['change']}")
    check(m["verdict"] == "ok", "decompress verdict")
    check(s["claims"]["decompress_mbps"] is False,
          "8 of 10 pairs won must not hold a claim")
    p50 = s["metrics"]["req_p50_ms"]
    check(p50["won"] == 7 and p50["ties"] == 0, "lower-is-better wins")
    check(p50["verdict"] == "ok", "p50 verdict")
    check(s["ratio_identical"], "ratio identical in every pair")
    check(s["probe"]["base"] == {"alu_ms": 11.0, "mem_ms": 21.0},
          f"probe {s['probe']['base']}")
    check(verdict_ok(s) is False, "a failed claim fails the run")

    # Nine of ten pairs won by more than the base IQR holds; a 30% drop
    # breaks a 25% bound; one differing ratio is reported; a tie counts
    # for neither side.
    for i, run in enumerate(runs):
        run["head"]["metrics"]["decompress_mbps"] = (
            base[i] if i == 0 else base[i] * 1.3)
        run["head"]["metrics"]["req_p50_ms"] = 2.7
    runs[4]["head"]["metrics"]["ratio"] = 3.4
    s = summarize_workload("w", runs, schema, ["w/decompress_mbps"])
    m = s["metrics"]["decompress_mbps"]
    check(m["won"] == 9 and m["ties"] == 1, f"won {m['won']} ties {m['ties']}")
    check(s["claims"]["decompress_mbps"] is True, "9 of 10 pairs must hold")
    check(s["metrics"]["req_p50_ms"]["verdict"] == "over bound",
          "35% slower p50 must break the 25% bound")
    check(not s["ratio_identical"], "a differing ratio must be reported")
    check("identical in 9/10 pairs" in format_summary(s, "w"),
          "ratio pairs in the printed table")
    check(verdict_ok(s) is False, "a broken bound fails the run")

    # Runs that spread wider than the bound leave the verdict unresolved,
    # unless every head run beats every base run.
    spec = {"better": "higher", "bound": 0.25}
    wide = [60.0, 100.0, 140.0, 80.0, 120.0]
    check(bound_verdict(wide, wide, 100.0, 0.0, spec) == "unresolved",
          "wide spread must be unresolved")
    check(bound_verdict(wide, [w + 100 for w in wide], 100.0, 1.0, spec)
          == "ok", "every head run better resolves a wide spread")

    # Fewer than 10 pairs hold no claim, however many are won.
    s = summarize_workload("w", runs[5:9], schema, ["w/decompress_mbps"])
    check(s["metrics"]["decompress_mbps"]["won"] == 4, "4 of 4 pairs won")
    check(s["claims"]["decompress_mbps"] is False,
          "4 pairs must not hold a claim")

    # A run that failed to report keeps its pair out of that metric, but
    # the claim counts the pair as run and not won: 8 wins in 10 pairs.
    runs[0]["head"]["metrics"]["decompress_mbps"] = base[0] * 1.3
    runs[2]["head"] = {"correct": False, "metrics": {}}
    runs[6]["head"] = {"correct": False, "metrics": {}}
    s = summarize_workload("w", runs, schema, ["w/decompress_mbps"])
    m = s["metrics"]["decompress_mbps"]
    check(m["pairs"] == 8 and m["won"] == 8, "missing runs")
    check(s["correct"]["head"] == 8, "correct count")
    check(s["claims"]["decompress_mbps"] is False,
          "two failed head runs in 10 pairs must not hold a claim")

    # A head run that reported but was wrong wins no pair either.
    for i in (2, 6):
        runs[i]["head"] = result(base[i] * 1.3, 2.0, 3.5)
    runs[6]["head"]["correct"] = False
    s = summarize_workload("w", runs, schema, ["w/decompress_mbps"])
    check(s["claims"]["decompress_mbps"] is True, "9 correct wins hold")
    runs[2]["head"]["correct"] = False
    s = summarize_workload("w", runs, schema, ["w/decompress_mbps"])
    check(s["metrics"]["decompress_mbps"]["won"] == 10, "wrong runs' values")
    check(s["claims"]["decompress_mbps"] is False,
          "two wrong head runs must not hold a claim")

    # perfbench's two output lines.
    out = ('build noise\nmeta {"seed": 3, "probe_start": {"alu_ms": 1.5, '
           '"mem_ms": 2.5}}\n{"correct": true, "attempted": 4, "failed": 0, '
           '"metrics": {"ratio": {"value": 3.25, "unit": "x"}}}\n')
    parsed = parse_output(out)
    check(parsed["metrics"] == {"ratio": 3.25} and parsed["meta"]["seed"] == 3,
          f"parse {parsed}")
    check(quartiles([5.0]) == (5.0, 5.0, 5.0), "one run")
    json.dumps(s)  # every summary is JSON as recorded

    for failure in failures:
        print(f"perf_ab selftest: FAILED: {failure}")
    print(f"perf_ab selftest: {'ok' if not failures else 'FAILED'}")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="base revision (default HEAD)")
    parser.add_argument("--head", default=WORKTREE,
                        help=f"head revision, or {WORKTREE} (the default)")
    parser.add_argument("--workloads",
                        help="comma-separated; default every workload in "
                             "BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD/METRIC")
    parser.add_argument("--note", default="",
                        help="free text recorded with the summary")
    parser.add_argument("--no-record", action="store_true",
                        help="print the summary without appending it")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
