"""Seeded random surface generation and the consistency harness.

The generator builds random blow-up sequences over random bases, keeps the
surfaces whose anticanonical class is big relative to the catalog, and runs
the theorem cross-check (``AnticanonicalAnalysis.certify``: two computed
routes and three derived members per quintet) on each.  Output is fully
determined by the seed: the only randomness source is one
``random.Random`` instance and the catalog is always iterated in order.
"""
from __future__ import annotations

import random
from collections import namedtuple

from .errors import GeometryError
from .lattice import pair_numerators
from .pairs import AnticanonicalAnalysis
from .surface import BlowUpRecord, SurfaceModel, blow_up, build_base, declare_curve


# status is "ok", "inconsistent" or "error"
CorpusEntry = namedtuple("CorpusEntry", "index base rank status detail")


class CorpusSummary(
    namedtuple("CorpusSummary", "seed count entries inconsistencies errors")
):
    __slots__ = ()

    def render(self) -> str:
        lines = [f"corpus seed={self.seed} count={self.count}"]
        for entry in self.entries:
            line = f"[{entry.index:04d}] base={entry.base} rank={entry.rank} {entry.status}"
            if entry.detail:
                line += f" :: {entry.detail}"
            lines.append(line)
        lines.append(
            f"total={self.count} inconsistencies={self.inconsistencies} "
            f"errors={self.errors}"
        )
        return "\n".join(lines)


def _random_base(rng: random.Random) -> SurfaceModel:
    roll = rng.randrange(10)
    if roll < 5:
        s = build_base("P2")
        if rng.randrange(2):
            s = declare_curve(s, "q", (2,), 0)
        if rng.randrange(3) == 0:
            s = declare_curve(s, "cub", (3,), 1)
        return s
    if roll < 8:
        return build_base("hirzebruch", e=rng.randrange(4))
    return build_base("ruled", e=1 + rng.randrange(2), genus=1)


def _random_blow_up(rng: random.Random, s: SurfaceModel, index: int) -> SurfaceModel:
    mode = rng.randrange(10)
    point = f"rp{index}"
    if mode < 5 and s.catalog:
        target = s.catalog[rng.randrange(len(s.catalog))]
        rec = BlowUpRecord(point, ((target.curve_id, 1),))
    elif mode < 7:
        # one pairing per pair: a table row would be filled on a model
        # that the next blow-up replaces
        gram = s.lattice.gram
        shared = [
            (pair, entry)
            for pair, entries in sorted(s.incidence.items())
            for entry in entries
            if pair_numerators(
                gram, s.curve(pair[0]).divisor_class.nums, s.curve(pair[1]).divisor_class.nums
            ) >= 1
        ]
        if not shared:
            return s
        pair, _ = shared[rng.randrange(len(shared))]
        rec = BlowUpRecord(point, ((pair[0], 1), (pair[1], 1)))
    elif mode < 9 and s.blowups:
        last = s.blowups[-1].exceptional_id
        rec = BlowUpRecord(point, ((last, 1),), near=last)
    else:
        rec = BlowUpRecord(point)
    return blow_up(s, rec)


def _random_analysis(rng: random.Random, max_rank: int) -> AnticanonicalAnalysis | None:
    """The analysis of one candidate surface, or None if it is not big
    anticanonical; the analysis keeps the decomposition its filter made."""
    s = _random_base(rng)
    room = max_rank - s.rank
    if room < 0:
        return None
    for index in range(rng.randrange(room + 1)):
        s = _random_blow_up(rng, s, index + 1)
    analysis = AnticanonicalAnalysis(s)
    try:
        return analysis if analysis.big else None
    except GeometryError:
        return None


def random_surface(rng: random.Random, max_rank: int = 12) -> SurfaceModel | None:
    """One candidate surface, or None if it is not big anticanonical."""
    analysis = _random_analysis(rng, max_rank)
    return None if analysis is None else analysis.s


def run_corpus(seed: int, count: int, max_rank: int = 12) -> CorpusSummary:
    rng = random.Random(seed)
    entries = []
    attempts = 0
    index = 0
    while index < count and attempts < max(200, count * 60):
        attempts += 1
        analysis = _random_analysis(rng, max_rank)
        if analysis is None:
            continue
        s = analysis.s
        base = s.base.kind if s.base.kind == "P2" else f"{s.base.kind}(e={s.base.e})"
        try:
            report = analysis.certify
        except GeometryError as exc:
            entries.append(CorpusEntry(index, base, s.rank, "error", str(exc)))
            index += 1
            continue
        if report.consistent:
            detail = f"klt={report.klt_member} weak={report.weak_member}"
            entries.append(CorpusEntry(index, base, s.rank, "ok", detail))
        else:
            entries.append(
                CorpusEntry(index, base, s.rank, "inconsistent", "; ".join(report.failures))
            )
        index += 1
    if index < count:
        raise GeometryError(
            f"corpus generation stalled: {index} surfaces in {attempts} attempts"
        )
    bad = sum(1 for e in entries if e.status == "inconsistent")
    errors = sum(1 for e in entries if e.status == "error")
    return CorpusSummary(seed, count, tuple(entries), bad, errors)
