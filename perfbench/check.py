"""Output checks, run outside the timed region.

Every output is compared with its recorded SHA-256.  In addition, the
``zariski`` block of each distinct ``analyze`` report is re-verified here
with the benchmark's own exact arithmetic: the catalog is rebuilt from the
input description (base block, one ``-1`` axis per blow-up, strict
transforms), independently of ``delpezzo``.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

CORPUS_LINE = re.compile(r"\[(\d{4})\] base=(\S+) rank=(\d+) (\S+)")


class Catalog:
    """Curve classes and -K of a surface description, rebuilt from scratch."""

    def __init__(self, description: dict):
        base = description["base"]
        kind = base["kind"]
        if kind == "P2":
            self.block = [[Fraction(1)]]
            self.curves = {"h": [Fraction(1)]}
            self.anticanonical = [Fraction(3)]
        else:
            e, genus = int(base.get("e", 0)), int(base.get("genus", 0))
            self.block = [[Fraction(-e), Fraction(1)], [Fraction(1), Fraction(0)]]
            self.curves = {"c0": [Fraction(1), Fraction(0)], "f": [Fraction(0), Fraction(1)]}
            self.anticanonical = [Fraction(2), Fraction(2 + e - 2 * genus)]
        declared = description.get("curves", [])
        self._declare(declared, 0)
        for index, blowup in enumerate(description.get("blowups", [])):
            exceptional = blowup.get("exceptional") or f"e{index + 1}"
            incidences = {cid: int(mult) for cid, mult in blowup.get("on", [])}
            if blowup.get("near"):
                incidences.setdefault(blowup["near"], 1)
            for coords in self.curves.values():
                coords.append(Fraction(0))
            for cid, mult in incidences.items():
                self.curves[cid][-1] -= mult
            self.anticanonical.append(Fraction(-1))  # -K' = f*(-K) - E
            self.curves[exceptional] = [Fraction(0)] * (self.rank - 1) + [Fraction(1)]
            self._declare(declared, index + 1)

    @property
    def rank(self) -> int:
        return len(self.anticanonical)

    def _declare(self, declared: list, after: int) -> None:
        for curve in declared:
            if int(curve.get("after", 0)) == after:
                self.curves[curve["id"]] = [Fraction(x) for x in curve["class"]]

    def dot(self, a: list[Fraction], b: list[Fraction]) -> Fraction:
        base = len(self.block)
        total = sum(
            a[i] * self.block[i][j] * b[j] for i in range(base) for j in range(base)
        )
        return total - sum(x * y for x, y in zip(a[base:], b[base:]))


def negative_definite(gram: list[list[Fraction]]) -> bool:
    """Symmetric elimination without pivoting: negative definite iff every
    pivot is negative (a zero pivot means a singular leading minor)."""
    work = [list(row) for row in gram]
    for k in range(len(work)):
        pivot = work[k][k]
        if pivot >= 0:
            return False
        for i in range(k + 1, len(work)):
            factor = work[i][k] / pivot
            if factor:
                for j in range(k, len(work)):
                    work[i][j] -= factor * work[k][j]
    return True


def check_report(description: dict, report: dict) -> list[str]:
    """Problems found in one ``analyze --format json`` report."""
    cat = Catalog(description)
    problems = []
    if report["rank"] != cat.rank:
        problems.append(f"rank {report['rank']} != {cat.rank}")
    if [Fraction(x) for x in report["anticanonical"]["class"]] != cat.anticanonical:
        problems.append("-K differs from the rebuilt canonical class")
    block = report["zariski"]
    positive = [Fraction(x) for x in block["positive"]]
    negative = [(cid, Fraction(c)) for cid, c in block["negative"]]
    total = list(positive)
    for cid, coeff in negative:
        if coeff <= 0:
            problems.append(f"N coefficient of {cid} is not positive")
        for i, x in enumerate(cat.curves[cid]):
            total[i] += coeff * x
    if total != cat.anticanonical:
        problems.append("P + N != -K")
    for cid, coords in cat.curves.items():
        if cat.dot(positive, coords) < 0:
            problems.append(f"P.{cid} < 0")
    support = [cid for cid, _ in negative]
    for cid in support:
        if cat.dot(positive, cat.curves[cid]) != 0:
            problems.append(f"P.{cid} != 0 on the support of N")
    gram = [[cat.dot(cat.curves[a], cat.curves[b]) for b in support] for a in support]
    if not negative_definite(gram):
        problems.append("support of N is not negative definite")
    square = cat.dot(positive, positive)
    big = square > 0
    if Fraction(block["positive_square"]) != square or block["big"] != big:
        problems.append("P^2 or big differs from the rebuilt pairing")
    max_n = max((c for _, c in negative), default=Fraction(0))
    klt, weak = big and max_n < 1, max_n <= 1
    for name, value in report["classes"].items():
        if value != (klt if name.startswith("klt_") else weak):
            problems.append(f"class {name}={value}, criterion says otherwise")
    verdicts = report["verdicts"]
    if verdicts["klt_any_boundary"]["member"] != klt:
        problems.append("klt verdict differs from big and max N < 1")
    if verdicts["weak_lc_any_boundary"]["member"] != weak:
        problems.append("weak lc verdict differs from max N <= 1")
    if report["consistent"] is not True or report["failures"]:
        problems.append("report is not consistent")
    return problems


def check_corpus(render: str, count: int, head: list[tuple[str, int]]) -> list[str]:
    """Problems found in one ``corpus`` render; ``head`` holds the base kind
    and rank of the first surfaces that corpus should keep."""
    lines = render.splitlines()
    entries = [CORPUS_LINE.match(line) for line in lines[1:-1]]
    problems = []
    if len(entries) != count or not all(entries):
        return [f"expected {count} corpus entries"]
    if lines[-1] != f"total={count} inconsistencies=0 errors=0":
        problems.append(f"corpus summary reads {lines[-1]!r}")
    problems += [f"entry {m.group(1)} is {m.group(4)}" for m in entries if m.group(4) != "ok"]
    for m, (kind, rank) in zip(entries, head):
        if not m.group(2).startswith(kind) or int(m.group(3)) != rank:
            problems.append(f"entry {m.group(1)} differs from the generated sample")
    return problems


def check_line_star(description: dict, file_text: str, params, delpezzo) -> list[str]:
    """A generated member has rank 1 + n + arms*len and re-parses, both as
    JSON and through ``delpezzo``, to the same description."""
    n, arms, length = params
    problems = []
    if json.loads(file_text) != description:
        problems.append("file does not re-parse to the generated description")
    s = delpezzo.from_description(description)
    if s.rank != 1 + n + arms * length:
        problems.append(f"rank {s.rank} != 1 + {n} + {arms}*{length}")
    if delpezzo.to_description(s) != description:
        problems.append("delpezzo does not round-trip the description")
    return problems
