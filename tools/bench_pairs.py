"""Alternating before/after runs of the benchmark, summarised as BENCH_*.json.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH_N.json

Every report records its own command line under ``"argv"``, with the
``--out`` path cut to its file name.

The parent commit (``git archive``) and the change (the working tree's
tracked and unignored files) are copied into a temporary directory, so
both sides start alike: no bytecode caches, no leftovers.  For each workload
and each seed ``1 .. pairs`` it runs ``perfbench/run.py --seconds 20`` once
on each side, the parent first in odd pairs and the change first in even
pairs, so that a drift of the machine's speed hits both sides alike.  Then it runs
the traced pass (``--trace 1``, seed 1) twice per side, in the order parent,
change, change, parent, so that a linear drift adds as much to each side's
mean, and optionally one held-out pair on the claimed workload.  Per
end-to-end metric it writes the quartiles of each side, the relative
change of the medians, how many pairs the change won, and whether the gap
of the medians exceeds the parent's interquartile range.  Per timed layer
it writes both traced readings of each side and their mean; a count is
written once per side, and ``counts_differ`` names any count whose two
runs on one side disagree.  The temporary directory is removed at exit.
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
TRACE_ORDER = ("parent", "change", "change", "parent")


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
    # statistics.quantiles needs two values; one value is its own quartiles
    values = values if len(values) > 1 else values * 2
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


def layers(traced: dict, timed: set) -> dict:
    """The per-layer metrics of each side's two traced runs: a timed layer
    as both readings and their mean, a count as its one value."""
    out = {"correct": {side: all(r["correct"] for r in traced[side]) for side in SIDES}}
    differ = []
    for name in traced["change"][0]["metrics"]:
        readings = {side: [r["metrics"][name]["value"] for r in traced[side]] for side in SIDES}
        if name in timed:
            out[name] = {
                side: {"runs": runs, "mean": statistics.fmean(runs)}
                for side, runs in readings.items()
            }
        else:
            out[name] = {side: runs[0] for side, runs in readings.items()}
            differ += [f"{name} ({side})" for side, runs in readings.items() if runs[0] != runs[1]]
    if differ:
        out["counts_differ"] = differ
    return out


def recorded_argv(argv: list[str]) -> list[str]:
    """The command line as a report records it: ``--out`` (or a prefix of
    it that argparse accepts) keeps only its file name, so a report written
    outside the checkout names no directory of the machine that wrote it."""
    recorded, path_next = [], False
    for item in argv:
        flag, eq, value = item.partition("=")
        out = not path_next and len(flag) > 2 and "--out".startswith(flag)
        if path_next:
            item = Path(item).name
        elif out and eq:
            item = f"{flag}={Path(value).name}"
        recorded.append(item)
        path_next = out and not eq
    return ["tools/bench_pairs.py", *recorded]


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
    parser.add_argument("--out", required=True)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    # times, and the trace's overhead, which is a ratio of times
    timed = {m["name"] for m in spec["per_layer"] if m["unit"] == "ms"} | {"trace.overhead"}
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
            traced = {side: [] for side in SIDES}
            for side in TRACE_ORDER:
                traced[side].append(run_bench(roots[side], workload, TRACE_SEED, 1))
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
                f"traced_seed{TRACE_SEED}": layers(traced, timed),
            }
        report = {
            "argv": recorded_argv(argv),
            "benchmark": "python3 perfbench/run.py --workload W --seed i "
            f"--seconds {SECONDS} --trace 0",
            "machine": f"{os.cpu_count()}-CPU {platform.machine()} machine, Python "
            f"{platform.python_version()}; times are scaled by the benchmark's Fraction "
            "probe (perfbench/README.md)",
            "method": f"{args.pairs} pairs per workload, seeds 1-{args.pairs}; odd pairs "
            "run parent first, even pairs run change first; two traced runs (--trace 1, "
            f"seed {TRACE_SEED}) per side per workload in the order parent, change, change, "
            "parent, each timed layer written as both readings and their mean, so that a "
            "linear drift cancels; made by tools/bench_pairs.py",
            "parent": parent,
        }
        if args.claim_workload and args.claim_metric:
            report["claim"] = claim(args, roots, workloads[args.claim_workload]["metrics"])
        report["workloads"] = workloads
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
