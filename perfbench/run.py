"""Benchmark of `delpezzo`: time to a verdict, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Each operation is a `delpezzo` command line run in-process through
``cli.main`` (closed loop, one client).  With ``--trace 0`` the benchmark
runs whole passes over the workload's operations, in the seed's order,
until the next pass would end after ``--seconds``, and prints the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
passes for the same window, prints the per-layer metrics of the traced
passes and checks that their counters repeat exactly.  Every output is
checked outside the timed region (see ``check.py``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# The probe's fastest time in ms on a 2-vCPU Intel Xeon VM at 2.0 GHz with
# Python 3.11.  Scaled times read as milliseconds on that machine when no
# other load slows it down.
PROBE_MS = 5.3


def probe() -> float:
    """Seconds for a fixed exact elimination, the kind of work `delpezzo`
    spends its time on; it shares no code with the package."""
    n = 12
    rows = [
        [Fraction((i * 7 + j * 13) % 17 - 8 + (20 if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]
    start = perf_counter()
    for _ in range(2):
        work = [list(row) for row in rows]
        for k in range(n):
            for i in range(k + 1, n):
                factor = work[i][k] / work[k][k]
                work[i] = [a - factor * b for a, b in zip(work[i], work[k])]
    return perf_counter() - start


def fresh_import():
    """Import the package from source as a new process would."""
    for name in [n for n in sys.modules if n == "delpezzo" or n.startswith("delpezzo.")]:
        del sys.modules[name]
    importlib.import_module("delpezzo")
    return importlib.import_module("delpezzo.cli")


def setup(workload: str, workdir: Path):
    """Import and generate inputs SETUP_REPEATS times, a probe before each;
    the last set is used.  Returns the median set-up time, scaled as in
    ``measure``."""
    seconds, probes = [], []
    for attempt in range(SETUP_REPEATS):
        target = workdir / f"setup{attempt}"
        target.mkdir()
        probes.append(probe())
        start = perf_counter()
        cli = fresh_import()
        inputs = workloads.prepare(workload, ROOT, target)
        seconds.append(perf_counter() - start)
    scale = PROBE_MS / (1000 * statistics.mean(probes))
    return cli, inputs, scale * statistics.median(seconds)


def check_inputs(inputs) -> list[str]:
    import delpezzo

    problems = []
    for op in inputs.ops:
        if op.name in inputs.line_stars:
            text = Path(op.argv[1]).read_text(encoding="utf-8")
            problems += [
                f"{op.name}: {p}"
                for p in check.check_line_star(
                    inputs.descriptions[op.name], text, inputs.line_stars[op.name], delpezzo
                )
            ]
    return problems


def run_op(cli, op):
    """Time one command line; returns (seconds, exit code, stdout, stderr).

    A raised exception reads as exit code None, its traceback as stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # each call starts from a collected heap
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception:
            code = None
            traceback.print_exc()
        seconds = perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


class Checker:
    """Checks outputs and counts failed operations.

    ``expected`` maps operation names to recorded SHA-256 digests; with
    None, digests are not compared.  The independent check runs once per
    distinct output.
    """

    def __init__(self, inputs, expected: dict | None):
        self.inputs = inputs
        self.expected = expected
        self.verified: dict[tuple[str, str], list[str]] = {}
        self.attempted = 0
        self.failed = 0

    def problems(self, op, code, stdout: str, stderr: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-2000:]}"]
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        found = []
        if self.expected is not None and digest != self.expected.get(op.name):
            found.append("output differs from the recorded SHA-256")
        key = (op.name, digest)
        if key not in self.verified:
            try:
                self.verified[key] = self._verify(op, stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.verified[key] = [f"output does not have the expected form: {exc!r}"]
        return found + self.verified[key]

    def _verify(self, op, stdout: str) -> list[str]:
        if op.kind == "corpus":
            seed = int(op.argv[2])
            return check.check_corpus(
                stdout, workloads.CORPUS_COUNT, self.inputs.corpus_heads[seed]
            )
        return check.check_report(self.inputs.descriptions[op.name], json.loads(stdout))

    def record(self, op, code, stdout: str, stderr: str) -> None:
        self.attempted += 1
        found = self.problems(op, code, stdout, stderr)
        if found:
            self.failed += 1
            print(f"FAILED {op.name}: {'; '.join(found)}", file=sys.stderr)


def run_pass(cli, ops, checker, samples, probes) -> float:
    """One pass over ``ops``, with a probe before each operation; appends
    (op, seconds) to ``samples`` and probe times to ``probes``.  Returns the
    operations' total time."""
    total = 0.0
    for op in ops:
        probes.append(probe())
        seconds, code, stdout, stderr = run_op(cli, op)
        total += seconds
        samples.append((op, seconds))
        checker.record(op, code, stdout, stderr)
    return total


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(cli, ops, checker, seconds: float, setup_s: float) -> dict:
    """Whole passes until the next one would end after ``seconds``.

    The VM that PROBE_MS was measured on is shared with other tenants: its
    speed drifts by up to 2x within seconds and by 1.5x from one minute to
    the next.  So each input's mean time is
    scaled by PROBE_MS over the probe's mean time in the same window: the
    probe and the program slow down together, and the ratio of their means
    varied by about 2% where raw times varied by 18%.
    """
    samples: list[tuple[object, float]] = []
    probes: list[float] = []
    start = perf_counter()
    last = 0.0
    passes = 0
    while passes == 0 or perf_counter() - start + last <= seconds:
        began = perf_counter()
        run_pass(cli, ops, checker, samples, probes)
        last = perf_counter() - began
        passes += 1
    scale = PROBE_MS / (1000 * statistics.mean(probes))
    times: dict[str, list[float]] = {}
    for op, value in samples:
        times.setdefault(op.name, []).append(value)
    latency = {name: scale * statistics.mean(values) for name, values in times.items()}
    analyze = [latency[op.name] for op in ops if op.kind == "analyze"]
    corpus = [latency[op.name] for op in ops if op.kind == "corpus"]
    if corpus:
        surfaces, busy = workloads.CORPUS_COUNT * len(corpus), sum(corpus)
    else:
        surfaces, busy = len(analyze), sum(analyze)
    print(
        f"passes={passes} wall_s={perf_counter() - start:.2f} samples={len(samples)} "
        f"probe_mean_ms={1000 * statistics.mean(probes):.3f} scale={scale:.4f}"
    )
    return {
        "analyze_ms_p50": ("ms", 1000 * quantile(analyze, 0.5)),
        "analyze_ms_p90": ("ms", 1000 * quantile(analyze, 0.9)),
        "surfaces_per_s": ("1/s", surfaces / busy),
        "setup_s": ("s", setup_s),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
    }


def traced(cli, ops, checker, seconds: float, workload: str, seed: int) -> tuple[dict, bool]:
    """Pairs of passes, untraced then traced, until the next pair would end
    after ``seconds`` (at least two pairs).  Layer times are the fastest
    traced pass's; the overhead compares mean pass times, which drift
    together since the passes alternate.  Every counter must read the same
    in every traced pass."""
    recorder = spans.Recorder()
    plain, layers = [], []
    start = perf_counter()
    last = 0.0
    while len(layers) < 2 or perf_counter() - start + last <= seconds:
        began = perf_counter()
        plain.append(run_pass(cli, ops, checker, [], []))
        sites = recorder.install()
        try:
            recorder.reset()
            layers.append((run_pass(cli, ops, checker, [], []), recorder.metrics()))
        finally:
            recorder.uninstall()
        last = perf_counter() - began
    print(f"pairs of passes={len(layers)} wrapped import sites={sites}")
    repeat = True
    first = layers[0][1]
    for name in spans.COUNTS:
        values = {m[name] for _, m in layers}
        if len(values) > 1:
            repeat = False
            print(f"counter {name} did not repeat: {sorted(values)}", file=sys.stderr)
    values = {name: first[name] for name in spans.COUNTS}
    values.update({name: min(m[name] for _, m in layers) for name in spans.TIMES})
    values["trace.overhead"] = statistics.mean(t for t, _ in layers) / statistics.mean(plain)
    metrics = {name: (spans.unit(name), value) for name, value in values.items()}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(recorder.dump()))
    return metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "delpezzo" / "__init__.py").is_file():
        print(f"error: no delpezzo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    try:
        cli, inputs, setup_s = setup(args.workload, workdir)
        problems = check_inputs(inputs)
        for problem in problems:
            print(f"FAILED input {problem}", file=sys.stderr)
        ops = workloads.ordered(inputs.ops, args.seed)
        checker = Checker(inputs, expected)
        if args.trace:
            metrics, repeat = traced(cli, ops, checker, args.seconds, args.workload, args.seed)
        else:
            metrics, repeat = measure(cli, ops, checker, args.seconds, setup_s), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (unit, value) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": checker.failed == 0 and not problems and repeat,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
