"""Compare exit codes and outputs of the working tree with a parent commit.

Run from the root of a checkout:

    python3 tools/same_outputs.py --parent HEAD~1

It runs 471 command lines in-process through ``delpezzo.cli.main``:

* ``analyze`` and ``classify`` with ``--format`` text, json and dot,
  ``decompose`` with text and json, and ``witness --method direct`` and
  ``--method cone`` with text and json, on the 12 committed fixtures and
  on seven ``line_star`` inputs (``perfbench/workloads.py``);
* ``analyze`` and ``classify`` with ``--format json``, and ``witness
  --method direct`` and ``--method cone`` with ``--format json``, on the
  first 10 surfaces that ``corpus --seed s --max-rank 40`` keeps, for
  s = 1 .. 3, drawn with the working tree's ``corpus.random_surface`` as
  ``perfbench/workloads.py`` draws its sample and written as files;
* ``decompose --divisor=... --format json`` on six fixtures and on the
  four ``line_star`` inputs of the benchmark (ranks 25, 21, 41 and 63),
  with three divisors each: a first coordinate of 1/2, 7/3 or 3, then
  -1/3, -2/5 or -1 on every other axis.  They reach classes with a
  denominator, supports of up to 11 curves and supports that fail with
  exit 2;
* ``blowup --at`` at each of the 11 redundant points of the fixtures, and
  at a point of ``star`` that is not one, which exits 2;
* ``blowup --at`` at the first redundant point of each ``line_star`` input
  and corpus-sample surface that has one, chosen with the working tree's
  ``AnticanonicalAnalysis`` when the inputs are written;
* ``analyze --format json``, ``classify --format json`` and ``blowup
  --at`` at a redundant point on four written surfaces (``WRITTEN``) that
  reach the surface echo's rarer records and the loader's checks off P2: a
  curve declared ``"after": 2`` next to ``near`` blow-ups, ids with quotes,
  a backslash and a non-ASCII letter, and a Hirzebruch and a ruled base
  that each declare curves before and after their blow-ups;
* ``analyze --assert klt_any_boundary`` and ``--assert
  weak_lc_any_boundary`` on the 12 committed fixtures, which exit 1 where
  the verdict is false;
* ``analyze`` on twelve inputs that the loader refuses, one per message
  (``EDGE``): a JSON syntax error, brackets nested 200000 deep, an int
  literal longer than ``sys.get_int_max_str_digits()``, bytes that are not
  UTF-8, a path that does not exist, P2 with 64 blow-ups, which is
  rank 65, one above the rank cap, P2 with 256 declared lines, a
  catalog of 257 curves, one above the catalog cap, and five curves or
  blow-ups that the stage's pairings refuse: a declared genus that
  adjunction contradicts, a curve meeting an exceptional curve negatively,
  a curve of degree 0 on the ample class of P2 and of F1, and two lines
  blown up twice at shared points, past what their meeting permits;
* ``corpus --seed s --count 200`` for s = 1 .. 10, at the default rank
  cap of 12, and ``corpus --seed s --count 50 --max-rank 40`` for
  s = 1 .. 3.

Each side runs the whole list in one child process: the parent commit from a
``git archive`` copy in a temporary directory, the change from the working
tree's ``src/``.  Both sides read the same input files.  Every command line
whose exit code, stdout or stderr differs is printed, and the exit status is
1 if there is one, else 0.  Only the standard library is used.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE_STARS = ((6, 4, 2), (10, 5, 1), (36, 2, 2), (56, 2, 3), (20, 10, 2), (30, 16, 2), (10, 6, 3))
CORPUS_SEEDS = range(1, 11)
CORPUS_COUNT = 200
# (seeds, count, max rank) of the draws above the default rank cap
WIDE_CORPUS = (range(1, 4), 50, 40)
# the surfaces of those corpora written as files: the first 10 of each seed
WIDE_SAMPLE = 10
DIVISOR_FIXTURES = ("f2", "f3", "cubic10", "star", "pair", "dp3")
# the benchmark's wide_support and high_rank members
DIVISOR_LINE_STARS = tuple(
    f"line_star_{n}_{arms}_{length}" for n, arms, length in LINE_STARS[:4]
)
DIVISORS = (("1/2", "-1/3"), ("7/3", "-2/5"), ("3", "-1"))  # (first, every other)
# every redundant point of the fixtures, by curve (generic) or point (shared)
# id, then one id that names none
BLOWUP_POINTS = (
    ("cubic10", "c"),
    ("elliptic_ruled", "c0"),
    ("elliptic_ruled_chain", "c0"),
    ("pair", "p7"),
    ("star", "l"),
    *(("star", f"p{i}") for i in range(1, 7)),
    ("star", "nope"),
)
ASSERTED = ("klt_any_boundary", "weak_lc_any_boundary")
# (name, description, --at value): surfaces written for their records
WRITTEN = (
    (
        "after_near",
        {
            "base": {"kind": "P2"},
            "curves": [{"id": "l", "class": ["1", "-1", "-1"], "pa": 0, "after": 2}],
            "blowups": [
                {"point": "p1", "exceptional": "e1"},
                {"point": "p2", "exceptional": "e2"},
                *(
                    {"point": f"p{i}", "exceptional": f"e{i}", "on": [["l", 1]]}
                    for i in range(3, 7)
                ),
                {"point": "q1", "exceptional": "f1", "near": "e1"},
                {"point": "q2", "exceptional": "f2", "near": "e2"},
                {"point": "q3", "exceptional": "f3", "on": [["e3", 1]]},
            ],
        },
        "p3",
    ),
    (
        "quoted_star",
        {
            "base": {"kind": "P2"},
            "curves": [{"id": 'l"x', "class": ["1"], "pa": 0}],
            "blowups": [
                {"point": "p1", "exceptional": "a\\b", "on": [['l"x', 1]]},
                *(
                    {"point": f"p{i}", "exceptional": f"e{i}", "on": [['l"x', 1]]}
                    for i in range(2, 6)
                ),
                {"point": "q1", "exceptional": "f1", "on": [["a\\b", 1]]},
                {"point": "p6", "exceptional": "\u00e96", "on": [['l"x', 1]]},
                {"point": "q2", "exceptional": "f2", "on": [["\u00e96", 1]]},
                {"point": "q3", "exceptional": "f3", "on": [["e2", 1]]},
            ],
        },
        "p6",
    ),
    (
        "hirzebruch_after",
        {
            "base": {"kind": "hirzebruch", "e": 3},
            "curves": [
                {"id": "s", "class": ["1", "3"], "pa": 0},
                {"id": "g", "class": ["0", "1"], "pa": 0},
                {"id": "t", "class": ["0", "1", "0", "-1"], "pa": 0, "after": 2},
            ],
            "blowups": [
                {"point": "p1", "exceptional": "e1", "on": [["c0", 1], ["f", 1]]},
                {"point": "p2", "exceptional": "e2", "on": [["c0", 1]]},
                {"point": "p3", "exceptional": "e3", "on": [["t", 1], ["e2", 1]]},
                {"point": "p4", "exceptional": "e4", "near": "e3"},
            ],
        },
        "p2",
    ),
    (
        "ruled_after",
        {
            "base": {"kind": "ruled", "e": 1, "genus": 1},
            "curves": [
                {"id": "s", "class": ["1", "1"], "pa": 1},
                {"id": "t", "class": ["0", "1", "0", "-1"], "pa": 0, "after": 2},
            ],
            "blowups": [
                {"point": "p1", "exceptional": "e1", "on": [["s", 1], ["f", 1]]},
                {"point": "p2", "exceptional": "e2", "on": [["c0", 1]]},
                {"point": "p3", "exceptional": "e3", "on": [["t", 1], ["e2", 1]]},
            ],
        },
        "p2",
    ),
)


P2 = {"kind": "P2"}


def _refused(base: dict, curves: list, blowups: list) -> bytes:
    """The bytes of a surface file for ``EDGE``, one whose curves or
    blow-ups the loader's checks refuse."""
    return json.dumps({"base": base, "curves": curves, "blowups": blowups}).encode()


def _after_one(base: dict, cls: list[str], pa: int) -> bytes:
    """``_refused`` of one free blow-up and then one curve, declared after
    it with class ``cls`` and genus ``pa``."""
    curve = {"id": "q", "class": cls, "pa": pa, "after": 1}
    return _refused(base, [curve], [{"point": "p1", "exceptional": "e1"}])


# (name, file bytes) of the inputs the loader refuses; None writes no file
EDGE = (
    ("syntax", b"{ not json"),
    ("deep", b"[" * 200000 + b"]" * 200000),
    (
        "long_int",
        b'{"base": {"kind": "P2"}, "curves": [{"id": "l", "class": ["1"], "pa": '
        + b"1" * (sys.get_int_max_str_digits() + 1)
        + b"}]}",
    ),
    ("not_utf8", b"\xff\xfe{}"),
    ("missing", None),
    (
        "rank65",
        json.dumps(
            {
                "base": {"kind": "P2"},
                "blowups": [{"point": f"p{i}", "exceptional": f"e{i}"} for i in range(64)],
            }
        ).encode(),
    ),
    (
        "catalog257",
        json.dumps(
            {
                "base": {"kind": "P2"},
                "curves": [{"id": f"l{i}", "class": ["1"], "pa": 0} for i in range(256)],
            }
        ).encode(),
    ),
    # 2p_a - 2 = -2 for 2h - e1, not 0
    ("adjunction", _after_one(P2, ["2", "-1"], 1)),
    # (3h + e1).e1 = -1
    ("meets_negatively", _after_one(P2, ["3", "1"], 0)),
    # -e1 passes adjunction with p_a = 1 and meets every curve nonnegatively
    ("degree_p2", _after_one(P2, ["0", "-1"], 1)),
    ("degree_f1", _after_one({"kind": "hirzebruch", "e": 1}, ["0", "0", "-1"], 1)),
    # after p1 the strict transforms of a and b are disjoint
    (
        "multiplicity",
        _refused(
            P2,
            [{"id": "a", "class": ["1"], "pa": 0}, {"id": "b", "class": ["1"], "pa": 0}],
            [
                {"point": f"p{i}", "exceptional": f"e{i}", "on": [["a", 1], ["b", 1]]}
                for i in (1, 2)
            ],
        ),
    ),
)

# Runs a JSON list of argv lists, read from stdin, through cli.main and
# writes one [exit code, stdout, stderr] per command line as JSON.
WORKER = """
import contextlib, io, json, sys
from delpezzo import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit {exc.code!r}"
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def command_lines(
    inputs: list[Path],
    sample: list[Path],
    blowups: list[tuple[Path, str]],
    written: list[tuple[Path, str]],
    edge: list[Path],
) -> list[list[str]]:
    argvs = []
    for path in inputs:
        file = str(path)
        for command in ("analyze", "classify"):
            argvs += [[command, file, "--format", f] for f in ("text", "json", "dot")]
        argvs += [["decompose", file, "--format", f] for f in ("text", "json")]
        argvs += [
            ["witness", file, "--method", method, "--format", f]
            for method in ("direct", "cone")
            for f in ("text", "json")
        ]
    divisor_inputs = [ROOT / "fixtures" / f"{name}.json" for name in DIVISOR_FIXTURES]
    divisor_inputs += [path for path in inputs if path.stem in DIVISOR_LINE_STARS]
    for path in divisor_inputs:
        data = json.loads(path.read_text(encoding="utf-8"))
        rank = (1 if data["base"]["kind"] == "P2" else 2) + len(data.get("blowups", []))
        for first, rest in DIVISORS:
            divisor = ",".join([first] + [rest] * (rank - 1))
            argvs.append(["decompose", str(path), f"--divisor={divisor}", "--format", "json"])
    argvs += [
        ["blowup", str(ROOT / "fixtures" / f"{name}.json"), "--at", at]
        for name, at in BLOWUP_POINTS
    ]
    argvs += [["blowup", str(path), "--at", at] for path, at in blowups]
    for path, at in written:
        file = str(path)
        argvs += [[command, file, "--format", "json"] for command in ("analyze", "classify")]
        argvs.append(["blowup", file, "--at", at])
    argvs += [
        ["analyze", str(path), "--assert", verdict]
        for path in sorted((ROOT / "fixtures").glob("*.json"))
        for verdict in ASSERTED
    ]
    argvs += [["analyze", str(path)] for path in edge]
    for path in sample:
        file = str(path)
        argvs += [[command, file, "--format", "json"] for command in ("analyze", "classify")]
        argvs += [
            ["witness", file, "--method", method, "--format", "json"]
            for method in ("direct", "cone")
        ]
    argvs += [["corpus", "--seed", str(s), "--count", str(CORPUS_COUNT)] for s in CORPUS_SEEDS]
    seeds, count, max_rank = WIDE_CORPUS
    argvs += [
        ["corpus", "--seed", str(s), "--count", str(count), "--max-rank", str(max_rank)]
        for s in seeds
    ]
    return argvs


def write_inputs(
    tmp: Path,
) -> tuple[list[Path], list[Path], list[tuple[Path, str]], list[tuple[Path, str]], list[Path]]:
    """The committed fixtures and the ``line_star`` inputs, then the corpus
    sample, each written as files into ``tmp``; (file, ``--at`` value) for
    the first redundant point of each of those that has one; (file,
    ``--at`` value) for the ``WRITTEN`` surfaces; and the ``EDGE`` files."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from delpezzo import AnticanonicalAnalysis, GeometryError, from_description, to_description
    from delpezzo.corpus import random_surface
    from workloads import line_star

    blowups = []

    def first_redundant_point(path, s):
        try:
            points = AnticanonicalAnalysis(s).redundant_points
        except GeometryError:  # -K is not pseudo-effective on the catalog
            return
        if points:
            blowups.append((path, points[0].point_id or ",".join(points[0].curve_ids)))

    inputs = sorted((ROOT / "fixtures").glob("*.json"))
    for n, arms, length in LINE_STARS:
        path = tmp / f"line_star_{n}_{arms}_{length}.json"
        data = line_star(n, arms, length)
        path.write_text(json.dumps(data), encoding="utf-8")
        inputs.append(path)
        first_redundant_point(path, from_description(data))
    seeds, count, max_rank = WIDE_CORPUS
    sample = []
    for seed in seeds:
        # the draws `run_corpus` makes, so the sample is the head of that corpus
        rng, kept = random.Random(seed), 0
        for _ in range(count * 60):
            s = random_surface(rng, max_rank)
            if s is None:
                continue
            path = tmp / f"corpus{seed}_{kept:02d}.json"
            path.write_text(json.dumps(to_description(s)), encoding="utf-8")
            sample.append(path)
            first_redundant_point(path, s)
            kept += 1
            if kept == WIDE_SAMPLE:
                break
    written = []
    for name, data, at in WRITTEN:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        written.append((path, at))
    edge = []
    for name, content in EDGE:
        path = tmp / f"{name}.json"
        if content is not None:
            path.write_bytes(content)
        edge.append(path)
    return inputs, sample, blowups, written, edge


def run_side(src: Path, argvs: list[list[str]]) -> list[list]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", WORKER],
        input=json.dumps(argvs),
        cwd=src,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the worker on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def first_difference(a: str, b: str) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x != y:
            return f"line {number}: {x!r} != {y!r}"
    return f"{len(lines_a)} lines != {len(lines_b)} lines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.parent, "src"],
            cwd=ROOT,
            check=True,
            capture_output=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "parent", filter="data")
        argvs = command_lines(*write_inputs(tmp))
        parent = run_side(tmp / "parent" / "src", argvs)
        change = run_side(ROOT / "src", argvs)

    differences = 0
    for argv, before, after in zip(argvs, parent, change):
        if before == after:
            continue
        differences += 1
        print(" ".join(argv))
        for label, x, y in zip(("exit code", "stdout", "stderr"), before, after):
            if x != y:
                detail = f"{x!r} != {y!r}" if label == "exit code" else first_difference(x, y)
                print(f"  {label} differs: {detail}")
    print(f"{len(argvs)} command lines against {args.parent}: {differences} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
