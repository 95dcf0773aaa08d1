"""Alternating before/after runs of the benchmark, summarised as BENCH_*.json.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH_N.json

BENCH_3.json was made with, in addition, ``--claim-workload wide_support
--claim-metric analyze_ms_p50 --claim-threshold -0.4 --held-out-seed 11
--line-star 20,10,2 --line-star 30,16,2``, BENCH_4.json with
``--claim-workload high_rank --claim-metric analyze_ms_p50
--claim-threshold -0.3 --held-out-seed 11 --line-star 30,16,2``,
BENCH_5.json with ``--claim-workload high_rank --claim-metric
analyze_ms_p50 --claim-threshold -0.4 --held-out-seed 11 --line-star
30,16,2``, BENCH_6.json with ``--claim-workload high_rank
--claim-metric analyze_ms_p50 --claim-threshold -0.2 --held-out-seed 11
--line-star 30,16,2``, BENCH_7.json with ``--claim-workload fixtures
--claim-metric setup_s --claim-threshold -0.15 --held-out-seed 11``,
BENCH_8.json with ``--claim-workload fixtures --claim-metric
analyze_ms_p50 --claim-threshold -0.25 --held-out-seed 11``,
BENCH_9.json with ``--claim-workload high_rank --claim-metric
analyze_ms_p50 --claim-threshold -0.2 --held-out-seed 11 --line-star
30,16,2``, BENCH_10.json with ``--claim-workload high_rank
--claim-metric analyze_ms_p50 --claim-threshold -0.12 --held-out-seed 11
--line-star 30,16,2``, BENCH_11.json with ``--claim-workload
wide_support --claim-metric analyze_ms_p50 --claim-threshold -0.08
--held-out-seed 11 --line-star 30,16,2``, and BENCH_12.json and
BENCH_13.json, which claim no gain, with ``--line-star 30,16,2`` only.
Later reports record their own command line under ``"argv"``.

The parent commit (``git archive``) and the change (the working tree's
tracked and unignored files) are copied into a temporary directory, so
both sides start alike: no bytecode caches, no leftovers.  For each workload
and each seed ``1 .. pairs`` it runs ``perfbench/run.py --seconds 20`` once
on each side, the parent first in odd pairs and the change first in even
pairs, so that a drift of the machine's speed hits both sides alike.  Then it runs one traced
pass (``--trace 1``, seed 1) per side, optionally one held-out pair on the
claimed workload, and optionally ``LINE_STAR_REPEATS`` (11) single timed
calls per side of ``analyze --format json`` on ``line_star`` inputs, the
sides alternating, reported as each side's quartiles.  Per metric it writes
the quartiles of each side, the relative change of the medians, how many
pairs the change won, and whether the gap of the medians exceeds the
parent's interquartile range.  The temporary directory is removed at exit.
Only the standard library is used.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WORKLOADS = ("fixtures", "wide_support", "high_rank", "corpus")
SECONDS = 20  # the run length BENCHMARK.json gives perfbench/run.py
TRACE_SEED = 1
LINE_STAR_REPEATS = 11

# Times one in-process `analyze --format json` on a line_star input built by
# the benchmark's own generator; prints seconds, exit code and stdout digest.
SINGLE_CALL = """
import contextlib, hashlib, io, json, sys, tempfile, time
from pathlib import Path
root, n, arms, length = Path(sys.argv[1]), *map(int, sys.argv[2:5])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from workloads import line_star
from delpezzo import cli
path = Path(tempfile.mkdtemp()) / "line_star.json"
path.write_text(json.dumps(line_star(n, arms, length)))
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(["analyze", str(path), "--format", "json"])
seconds = time.perf_counter() - start
path.unlink()
path.parent.rmdir()
print(json.dumps({"seconds": seconds, "code": code,
                  "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}))
"""


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def unpack(commit: str, target: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def copy_working_tree(target: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


def run_bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {root}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(
        f"  {root.name:>6} {workload} seed={seed} trace={trace} correct={result['correct']} "
        f"failed={result['failed']}",
        file=sys.stderr,
        flush=True,
    )
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: dict, better: str, bound: float) -> dict:
    """Quartiles per side and the paired comparison of one metric."""
    parent, change = runs["parent"], runs["change"]
    p, c = quartiles(parent), quartiles(change)
    wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(parent, change))
    return {
        "better": better,
        "bound": bound,
        "parent": p,
        "change": c,
        "relative_change_of_median": round(c["median"] / p["median"] - 1, 4),
        "change_wins": f"{wins}/{len(parent)}",
        "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        "parent_runs": parent,
        "change_runs": change,
    }


def claim(args, roots: dict, metrics: dict) -> dict:
    """The claimed metric: met when the change wins at least nine pairs in
    ten, the gap of the medians exceeds the parent's interquartile range, and
    the relative change of the medians reaches ``--claim-threshold``."""
    m = metrics[args.claim_metric]
    wins = int(m["change_wins"].split("/")[0])
    change = m["relative_change_of_median"]
    lower = m["better"] == "lower"
    reached = change <= args.claim_threshold if lower else change >= args.claim_threshold
    out = {
        "metric": args.claim_metric,
        "workload": args.claim_workload,
        "target": f"at least {abs(args.claim_threshold):.0%} "
        f"{'lower' if lower else 'higher'} than the parent",
        "parent_median": m["parent"]["median"],
        "change_median": m["change"]["median"],
        "relative_change_of_median": change,
        "change_wins": m["change_wins"],
        "parent_iqr": m["parent"]["q3"] - m["parent"]["q1"],
        "met": reached and 10 * wins >= 9 * args.pairs and m["median_gap_exceeds_parent_iqr"],
    }
    if args.held_out_seed is not None:
        held = {
            side: run_bench(roots[side], args.claim_workload, args.held_out_seed, 0)
            for side in SIDES
        }
        values = {side: held[side]["metrics"][args.claim_metric]["value"] for side in SIDES}
        out["held_out"] = {
            "seed": args.held_out_seed,
            **values,
            "relative_change": round(values["change"] / values["parent"] - 1, 4),
            "correct": {side: held[side]["correct"] for side in SIDES},
        }
    return out


def single_calls(roots: dict, specs: list[str]) -> dict:
    out = {}
    for spec in specs:
        n, arms, length = spec.split(",")
        seconds = {side: [] for side in SIDES}
        digests = {side: set() for side in SIDES}
        for i in range(LINE_STAR_REPEATS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                proc = subprocess.run(
                    [sys.executable, "-c", SINGLE_CALL, str(roots[side]), n, arms, length],
                    check=True, capture_output=True, text=True,
                )
                result = json.loads(proc.stdout)
                if result["code"] != 0:
                    raise SystemExit(f"line_star({spec}) exited {result['code']} on the {side}")
                seconds[side].append(result["seconds"])
                digests[side].add(result["sha256"])
        out[f"line_star({spec})"] = {
            "rank": 1 + int(n) + int(arms) * int(length),
            "seconds_quartiles": {side: quartiles(seconds[side]) for side in SIDES},
            "seconds_runs": seconds,
            "stdout_identical": len(digests["parent"] | digests["change"]) == 1,
        }
        print(f"  line_star({spec}) {out[f'line_star({spec})']['seconds_quartiles']}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim-workload", choices=WORKLOADS)
    parser.add_argument("--claim-metric")
    parser.add_argument(
        "--claim-threshold", type=float, default=0.0,
        help="relative change of the medians the claim needs, e.g. -0.4 for 40%% lower",
    )
    parser.add_argument("--held-out-seed", type=int, help="one more pair on the claimed workload")
    parser.add_argument("--line-star", action="append", default=[], metavar="N,ARMS,LEN")
    parser.add_argument("--out", required=True)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent = git("rev-parse", args.parent)
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        roots = {side: scratch / side for side in SIDES}
        unpack(parent, roots["parent"])
        copy_working_tree(roots["change"])
        workloads = {}
        for workload in WORKLOADS:
            print(f"{workload}:", file=sys.stderr)
            runs = {side: [] for side in SIDES}
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_bench(roots[side], workload, i + 1, 0))
            traced = {side: run_bench(roots[side], workload, TRACE_SEED, 1) for side in SIDES}
            workloads[workload] = {
                "pairs": args.pairs,
                "correct_all": all(r["correct"] for side in SIDES for r in runs[side]),
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
                "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
                "metrics": {
                    name: summarise(
                        {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES},
                        m["better"],
                        m["bound"],
                    )
                    for name, m in metrics.items()
                },
                f"traced_seed{TRACE_SEED}": {
                    "correct": {side: traced[side]["correct"] for side in SIDES},
                    **{
                        name: {side: traced[side]["metrics"][name]["value"] for side in SIDES}
                        for name in traced["change"]["metrics"]
                    },
                },
            }
        report = {
            "argv": ["tools/bench_pairs.py", *argv],
            "benchmark": "python3 perfbench/run.py --workload W --seed i "
            f"--seconds {SECONDS} --trace 0",
            "machine": f"{os.cpu_count()}-CPU {platform.machine()} machine, Python "
            f"{platform.python_version()}; times are scaled by the benchmark's Fraction "
            "probe (perfbench/README.md)",
            "method": f"{args.pairs} pairs per workload, seeds 1-{args.pairs}; odd pairs "
            "run parent first, even pairs run change first; one traced run (--trace 1, "
            f"seed {TRACE_SEED}) per side per workload; made by tools/bench_pairs.py",
            "parent": parent,
        }
        if args.claim_workload and args.claim_metric:
            report["claim"] = claim(args, roots, workloads[args.claim_workload]["metrics"])
        report["workloads"] = workloads
        if args.line_star:
            report["single_calls"] = single_calls(roots, args.line_star)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
