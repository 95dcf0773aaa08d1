"""Inputs of the four benchmark workloads.

Every workload is a fixed list of operations, each one `delpezzo` command
line run in-process through ``cli.main``.  The workload seed only sets the
order in which the operations run, so every seed measures the same work:
on this code the cost of one `corpus` seed differs from the next by as much
as the machine's own run-to-run noise, so a seed-chosen input set would
swamp the benchmark's bounds.  A fixed set also lets every output be
compared with its recorded SHA-256 (``expected.json``).

* ``fixtures``: ``analyze`` on each of the 12 committed fixtures.
* ``wide_support``: ``line_star`` members whose Zariski support is wide;
  the definiteness test and the linear solve dominate.
* ``high_rank``: ``line_star`` members near the rank cap of 64 with a
  support of at most 7 curves; pairing and parsing dominate.
* ``corpus``: ``corpus --seed c --count 20`` for c = 1, 2, plus ``analyze``
  on the first 10 surfaces each of those corpora keeps.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("fixtures", "wide_support", "high_rank", "corpus")

# Every operation takes at most about 0.3 s, so that a 20 s run holds
# dozens of calls of each; the line_star members of 1-12 s first planned
# would give one or two.
WIDE_SUPPORT = ((6, 4, 2), (10, 5, 1))
HIGH_RANK = ((36, 2, 2), (56, 2, 3))
CORPUS_SEEDS = (1, 2)
CORPUS_COUNT = 20
CORPUS_MAX_RANK = 12  # the `corpus` subcommand's default
CORPUS_SAMPLE = 10  # per corpus seed


@dataclass(frozen=True)
class Op:
    """One command line; ``name`` keys its recorded output digest."""

    name: str
    argv: tuple[str, ...]
    kind: str  # "analyze" | "corpus"


@dataclass
class Inputs:
    ops: list[Op] = field(default_factory=list)
    # input description per analyze op, for the independent report check
    descriptions: dict[str, dict] = field(default_factory=dict)
    # line_star parameters per analyze op of the line_star workloads
    line_stars: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    # (base kind, rank) of the first surfaces each corpus seed keeps
    corpus_heads: dict[int, list[tuple[str, int]]] = field(default_factory=dict)


def line_star(n: int, arms: int, length: int) -> dict:
    """P2 with a line ``l`` through ``n`` blown-up points, then a chain of
    ``length`` further blow-ups on each of the first ``arms`` exceptionals.

    The Picard rank is ``1 + n + arms * length``.
    """
    blowups = [
        {"exceptional": f"e{i}", "on": [["l", 1]], "point": f"p{i}"}
        for i in range(1, n + 1)
    ]
    for arm in range(1, arms + 1):
        previous = f"e{arm}"
        for step in range(1, length + 1):
            current = f"f{arm}_{step}"
            blowups.append(
                {"exceptional": current, "on": [[previous, 1]], "point": f"q{arm}_{step}"}
            )
            previous = current
    return {
        "base": {"kind": "P2"},
        "blowups": blowups,
        "curves": [{"class": ["1"], "id": "l", "pa": 0, "smooth": True}],
    }


def _analyze(name: str, path: Path) -> Op:
    return Op(name, ("analyze", str(path), "--format", "json"), "analyze")


def _write(path: Path, description: dict) -> None:
    path.write_text(json.dumps(description, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def prepare(workload: str, root: Path, workdir: Path) -> Inputs:
    """Load or generate the workload's inputs; files go under ``workdir``.

    Only the corpus workload calls into ``delpezzo``, through the same
    generator the ``corpus`` subcommand uses.
    """
    inputs = Inputs()
    if workload == "fixtures":
        for path in sorted((root / "fixtures").glob("*.json")):
            name = f"fixtures/{path.name}"
            inputs.descriptions[name] = json.loads(path.read_text(encoding="utf-8"))
            inputs.ops.append(_analyze(name, path))
    elif workload in ("wide_support", "high_rank"):
        members = WIDE_SUPPORT if workload == "wide_support" else HIGH_RANK
        for params in members:
            name = "line_star({},{},{})".format(*params)
            description = line_star(*params)
            path = workdir / f"line_star_{params[0]}_{params[1]}_{params[2]}.json"
            _write(path, description)
            inputs.descriptions[name] = description
            inputs.line_stars[name] = params
            inputs.ops.append(_analyze(name, path))
    elif workload == "corpus":
        from delpezzo import to_description
        from delpezzo.corpus import random_surface

        for seed in CORPUS_SEEDS:
            inputs.ops.append(
                Op(
                    f"corpus{seed}",
                    ("corpus", "--seed", str(seed), "--count", str(CORPUS_COUNT)),
                    "corpus",
                )
            )
            # the same draws `run_corpus` makes, so the sample is the head
            # of that corpus
            rng = random.Random(seed)
            kept = []
            for _ in range(CORPUS_SAMPLE * 60):
                s = random_surface(rng, CORPUS_MAX_RANK)
                if s is not None:
                    kept.append(s)
                    if len(kept) == CORPUS_SAMPLE:
                        break
            inputs.corpus_heads[seed] = [(s.base.kind, s.rank) for s in kept]
            for index, s in enumerate(kept):
                name = f"corpus{seed}#{index:02d}"
                description = to_description(s)
                path = workdir / f"corpus{seed}_{index:02d}.json"
                _write(path, description)
                inputs.descriptions[name] = description
                inputs.ops.append(_analyze(name, path))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def ordered(ops: list[Op], seed: int) -> list[Op]:
    """The workload seed's order of the operations."""
    return random.Random(seed).sample(ops, len(ops))
