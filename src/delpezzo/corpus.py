"""Seeded random surface generation and the consistency harness.

The generator builds random blow-up sequences over random bases, keeps the
surfaces whose anticanonical class is big relative to the catalog, and runs
the theorem cross-check (``AnticanonicalAnalysis.certify``: two computed
routes and three derived members per quintet) on each.  Output is fully
determined by the seed: the only randomness source is one
``random.Random`` instance and the catalog is always iterated in order.

Each candidate draw grows on one ``surface._Stage``, as a surface file
does when it is loaded: every random blow-up is applied to the stage in
place, and the draw builds one ``SurfaceModel`` when it is finished.
"""
from __future__ import annotations

import random
from collections import namedtuple

from .errors import GeometryError
from .lattice import Q
from .pairs import AnticanonicalAnalysis
from .surface import BaseSurface, BlowUpRecord, SurfaceModel, _Stage


# the largest Picard rank a draw reaches unless the caller names another
MAX_DRAW_RANK = 12

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


def _random_base(rng: random.Random) -> _Stage:
    roll = rng.randrange(10)
    if roll < 5:
        stage = _Stage(BaseSurface("P2"))
        if rng.randrange(2):
            stage.declare("q", (Q(2),), 0, True)
        if rng.randrange(3) == 0:
            stage.declare("cub", (Q(3),), 1, True)
        return stage
    if roll < 8:
        return _Stage(BaseSurface("hirzebruch", e=rng.randrange(4)))
    return _Stage(BaseSurface("ruled", e=1 + rng.randrange(2), genus=1))


def _random_record(rng: random.Random, stage: _Stage, index: int) -> BlowUpRecord | None:
    """The next random blow-up of the stage, or None if the draw picks a
    shared point and no two curves share one."""
    mode = rng.randrange(10)
    point = f"rp{index}"
    curves = stage.curves  # in catalog order
    if mode < 5:
        ids = list(curves)
        return BlowUpRecord(point, ((ids[rng.randrange(len(ids))], 1),))
    if mode < 7:
        # each entry holds one point, shared by two curves that meet
        shared = sorted(stage.incidence)
        if not shared:
            return None
        pair = shared[rng.randrange(len(shared))]
        return BlowUpRecord(point, ((pair[0], 1), (pair[1], 1)))
    if mode < 9 and stage.blowups:
        last = stage.blowups[-1].exceptional_id
        return BlowUpRecord(point, ((last, 1),), near=last)
    return BlowUpRecord(point)


def _random_analysis(rng: random.Random, max_rank: int) -> AnticanonicalAnalysis | None:
    """The analysis of one candidate surface, or None if it is not big
    anticanonical; the analysis keeps the decomposition its filter made."""
    stage = _random_base(rng)
    room = max_rank - len(stage.labels)
    if room < 0:
        return None
    for index in range(rng.randrange(room + 1)):
        rec = _random_record(rng, stage, index + 1)
        if rec is not None:
            stage.blow_up(rec)
    analysis = AnticanonicalAnalysis(stage.model())
    try:
        return analysis if analysis.big else None
    except GeometryError:
        return None


def random_surface(rng: random.Random, max_rank: int = MAX_DRAW_RANK) -> SurfaceModel | None:
    """One candidate surface, or None if it is not big anticanonical."""
    analysis = _random_analysis(rng, max_rank)
    return None if analysis is None else analysis.s


def run_corpus(seed: int, count: int, max_rank: int = MAX_DRAW_RANK) -> CorpusSummary:
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
            detail = f"klt={analysis.klt_verdict.member} weak={analysis.weak_verdict.member}"
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
