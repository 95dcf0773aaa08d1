"""Compare exit codes and outputs of the working tree with a parent commit.

Run from the root of a checkout:

    python3 tools/same_outputs.py --parent HEAD~1

It runs 511 command lines in-process through ``delpezzo.cli.main``:

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
* ``analyze`` on 44 inputs that the loader refuses, one per message
  (``EDGE``): a JSON syntax error, brackets nested 200000 deep, an int
  literal longer than ``sys.get_int_max_str_digits()``, bytes that are not
  UTF-8, a path that does not exist, P2 with 64 blow-ups, which is
  rank 65, one above the rank cap, P2 with 256 declared lines, a
  catalog of 257 curves, one above the catalog cap, and five curves or
  blow-ups that the stage's pairings refuse: a declared genus that
  adjunction contradicts, a curve meeting an exceptional curve negatively,
  a curve of degree 0 on the ample class of P2 and of F1, and two lines
  blown up twice at shared points, past what their meeting permits; then
  six base parameters, four declared curves and nine blow-up records that
  the stage refuses, and thirteen malformed fields;
* eight more command lines (``EDGE_COMMANDS``): ``decompose --divisor``
  of the wrong length, ``blowup`` past the rank cap and past the catalog
  cap, ``corpus --count -1`` and ``--max-rank 0``, ``analyze`` and
  ``classify`` on a ruled surface whose -K has no Zariski decomposition,
  which exit 2, and ``classify`` on a ruled base of genus 2;
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
    # the base's parameters
    ("p2_with_e", _refused({"kind": "P2", "e": 1}, [], [])),
    ("hirzebruch_negative_e", _refused({"kind": "hirzebruch", "e": -1}, [], [])),
    ("hirzebruch_genus", _refused({"kind": "hirzebruch", "e": 1, "genus": 1}, [], [])),
    ("ruled_negative_genus", _refused({"kind": "ruled", "genus": -1}, [], [])),
    ("ruled_e_below_genus", _refused({"kind": "ruled", "e": -2, "genus": 1}, [], [])),
    ("unknown_kind", _refused({"kind": "torus"}, [], [])),
    # declared curves that the stage refuses
    ("id_in_use", _refused(P2, [{"id": "h", "class": ["1"], "pa": 0}], [])),
    ("fractional_class", _refused(P2, [{"id": "q", "class": ["1/2"], "pa": 0}], [])),
    # h - 2e1 passes adjunction with p_a = -1
    ("negative_genus", _after_one(P2, ["1", "-2"], -1)),
    (
        "genus_0_not_smooth",
        _refused(P2, [{"id": "q", "class": ["1"], "pa": 0, "smooth": False}], []),
    ),
    # blow-up records that the stage refuses
    ("unknown_incidence", _refused(P2, [], [{"point": "p1", "on": [["q", 1]]}])),
    ("multiplicity_0", _refused(P2, [], [{"point": "p1", "on": [["h", 0]]}])),
    ("listed_twice", _refused(P2, [], [{"point": "p1", "on": [["h", 1], ["h", 1]]}])),
    ("near_unknown", _refused(P2, [], [{"point": "p1", "near": "q"}])),
    ("near_not_exceptional", _refused(P2, [], [{"point": "p1", "near": "h"}])),
    ("point_in_use", _refused(P2, [], [{"point": "p1"}, {"point": "p1"}])),
    ("exceptional_in_use", _refused(P2, [], [{"point": "p1", "exceptional": "h"}])),
    ("smooth_double_point", _refused(P2, [], [{"point": "p1", "on": [["h", 2]]}])),
    # a nodal cubic (p_a 1) has no triple point
    (
        "triple_point",
        _refused(
            P2,
            [{"id": "c", "class": ["3"], "pa": 1, "smooth": False}],
            [{"point": "p1", "on": [["c", 3]]}],
        ),
    ),
    # malformed fields
    ("not_an_object", b"[]"),
    ("no_base", b"{}"),
    ("curves_not_a_list", json.dumps({"base": P2, "curves": {}}).encode()),
    ("curve_not_an_object", json.dumps({"base": P2, "curves": [1]}).encode()),
    ("after_out_of_range", _refused(P2, [{"id": "q", "class": ["1"], "pa": 0, "after": 1}], [])),
    ("class_length", _refused(P2, [{"id": "q", "class": ["1", "0"], "pa": 0}], [])),
    ("class_not_rational", _refused(P2, [{"id": "q", "class": ["x"], "pa": 0}], [])),
    ("smooth_not_bool", _refused(P2, [{"id": "q", "class": ["1"], "pa": 0, "smooth": "yes"}], [])),
    ("id_not_a_string", _refused(P2, [{"id": 5, "class": ["1"], "pa": 0}], [])),
    ("pa_not_an_integer", _refused(P2, [{"id": "q", "class": ["1"], "pa": "0"}], [])),
    ("point_not_a_string", _refused(P2, [], [{"point": 5}])),
    ("incidence_not_a_pair", _refused(P2, [], [{"point": "p1", "on": [["h"]]}])),
    ("missing_pa", _refused(P2, [{"id": "q", "class": ["1"]}], [])),
)

# (name, file bytes) of the surfaces that EDGE_COMMANDS reads
EDGE_FILES = (
    # rank 64, at the rank cap
    ("rank64", _refused(P2, [], [{"point": f"p{i}"} for i in range(1, 64)])),
    # 256 curves, at the catalog cap
    (
        "catalog256",
        _refused(P2, [{"id": f"l{i}", "class": ["1"], "pa": 0} for i in range(1, 256)], []),
    ),
    # -K.f' = -1 puts f' in N, and then c0 (c0^2 = 0) in a support that is
    # not negative definite: -K has no Zariski decomposition
    (
        "ruled_not_pseudo_effective",
        _refused(
            {"kind": "ruled", "e": 0, "genus": 1},
            [],
            [{"point": f"p{i}", "exceptional": f"e{i}", "on": [["f", 1]]} for i in (1, 2, 3)],
        ),
    ),
    # -K big, with N = 3/2 c0: the non-rational check rejects a base of genus 2
    ("ruled_genus_2", _refused({"kind": "ruled", "e": 4, "genus": 2}, [], [])),
)
# command lines beyond `analyze` on EDGE: the options that the CLI refuses,
# and the two ruled surfaces; "{name}" is the file of that name in EDGE_FILES
# or among the committed fixtures
EDGE_COMMANDS = (
    ("decompose", "{p2}", "--divisor=1,0"),
    ("blowup", "{rank64}", "--at", "e1"),
    ("blowup", "{catalog256}", "--at", "l1"),
    ("corpus", "--seed", "1", "--count", "-1"),
    ("corpus", "--seed", "1", "--count", "1", "--max-rank", "0"),
    ("analyze", "{ruled_not_pseudo_effective}"),
    ("classify", "{ruled_not_pseudo_effective}"),
    ("classify", "{ruled_genus_2}"),
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
    edge_files: dict[str, str],
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
    argvs += [[arg.format(**edge_files) for arg in argv] for argv in EDGE_COMMANDS]
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
) -> tuple[
    list[Path],
    list[Path],
    list[tuple[Path, str]],
    list[tuple[Path, str]],
    list[Path],
    dict[str, str],
]:
    """The committed fixtures and the ``line_star`` inputs, then the corpus
    sample, each written as files into ``tmp``; (file, ``--at`` value) for
    the first redundant point of each of those that has one; (file,
    ``--at`` value) for the ``WRITTEN`` surfaces; the ``EDGE`` files; and
    the files that ``EDGE_COMMANDS`` names, by name."""
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
    edge_files = {path.stem: str(path) for path in (ROOT / "fixtures").glob("*.json")}
    for name, content in EDGE_FILES:
        path = tmp / f"{name}.json"
        path.write_bytes(content)
        edge_files[name] = str(path)
    return inputs, sample, blowups, written, edge, edge_files


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
