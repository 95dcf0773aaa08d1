"""Canonical example surfaces, also used to generate the fixtures/ files.

Run ``PYTHONPATH=src python3 tests/surfaces.py [directory]`` from the root
of a checkout to (re)write the JSON files (default: ``fixtures``).
"""
from __future__ import annotations

import sys
from pathlib import Path

from delpezzo.surface import (
    BlowUpRecord,
    SurfaceModel,
    _Stage,
    blow_up,
    build_base,
    declare_curve,
    dumps,
)


def projective_plane() -> SurfaceModel:
    return build_base("P2")


def hirzebruch(e: int) -> SurfaceModel:
    return build_base("hirzebruch", e=e)


def elliptic_ruled(e: int = 1) -> SurfaceModel:
    """Relatively minimal ruled surface over an elliptic curve; the seeded
    section c0 is a smooth genus-one curve with c0^2 = -e."""
    return build_base("ruled", e=e, genus=1)


def del_pezzo(points: int) -> SurfaceModel:
    """Blow-up of the plane at `points` general points, with the line
    through every pair of points declared (so ampleness is tested against
    an honest set of negative-degree candidates)."""
    if not 1 <= points <= 8:
        raise ValueError("del Pezzo fixtures use 1..8 points")
    s = projective_plane()
    for i in range(1, points + 1):
        for j in range(i + 1, points + 1):
            s = declare_curve(s, f"l{i}{j}", (1,), 0)
    for i in range(1, points + 1):
        on = tuple(
            (f"l{a}{b}", 1)
            for a in range(1, points + 1)
            for b in range(a + 1, points + 1)
            if i in (a, b)
        )
        s = blow_up(s, BlowUpRecord(point_id=f"p{i}", incidences=on))
    return s


def cubic_with_points(points: int = 10) -> SurfaceModel:
    """Plane with a smooth cubic, blown up at `points` of its points.

    At ten points the strict transform is an elliptic (-1)-curve in the
    same class as -K: the negative part picks it up with coefficient
    exactly 1 and the positive part collapses to zero."""
    s = projective_plane()
    s = declare_curve(s, "c", (3,), 1)
    for i in range(1, points + 1):
        s = blow_up(s, BlowUpRecord(point_id=f"p{i}", incidences=(("c", 1),)))
    return s


def negative_star() -> SurfaceModel:
    """A (-5)-curve meeting five disjoint (-2)-curves once each.

    Line through six points; the first five exceptionals then get one
    extra blow-up apiece.  The negative part of -K has coefficient 4/3 on
    the line: worse than log canonical."""
    s = projective_plane()
    s = declare_curve(s, "l", (1,), 0)
    for i in range(1, 7):
        s = blow_up(s, BlowUpRecord(point_id=f"p{i}", incidences=(("l", 1),)))
    for i in range(1, 6):
        s = blow_up(s, BlowUpRecord(point_id=f"q{i}", incidences=((f"e{i}", 1),)))
    return s


def meeting_negative_pair() -> SurfaceModel:
    """A (-6)-curve and a (-3)-curve meeting at one recorded point.

    Line through seven points, then two extra points on the seventh
    exceptional.  N = (13/17) l + (10/17) e7; their shared point has
    multiplicity 23/17, so it is redundant while no single curve is."""
    s = projective_plane()
    s = declare_curve(s, "l", (1,), 0)
    for i in range(1, 8):
        s = blow_up(s, BlowUpRecord(point_id=f"p{i}", incidences=(("l", 1),)))
    for i in range(1, 3):
        s = blow_up(s, BlowUpRecord(point_id=f"q{i}", incidences=(("e7", 1),)))
    return s


def elliptic_ruled_with_chain() -> SurfaceModel:
    """Elliptic ruled surface blown up twice to grow an A1 chain next to
    the section: first a point of c0, then the recorded shared point of c0
    and the new exceptional.  Null(P) = {c0 (-3, genus 1), e1 (-2), e2 (-1)}."""
    s = elliptic_ruled(1)
    s = blow_up(s, BlowUpRecord(point_id="p1", incidences=(("c0", 1),)))
    s = blow_up(
        s, BlowUpRecord(point_id="p2", incidences=(("c0", 1), ("e1", 1)))
    )
    return s


def nine_point_pair_base() -> SurfaceModel:
    """The plane with 27 lines: three through each of nine chosen points.

    No blow-ups are applied; together with a coefficient of 1/10 on every
    line this is a klt del Pezzo pair whose log resolution (see
    ``nine_point_resolution``) is not a big anticanonical surface."""
    s = projective_plane()
    for i in range(1, 10):
        for j in range(1, 4):
            s = declare_curve(s, f"l{i}_{j}", (1,), 0)
    return s


def nine_point_records() -> tuple[BlowUpRecord, ...]:
    return tuple(
        BlowUpRecord(
            point_id=f"p{i}",
            incidences=tuple((f"l{i}_{j}", 1) for j in range(1, 4)),
        )
        for i in range(1, 10)
    )


def nine_point_resolution() -> SurfaceModel:
    s = nine_point_pair_base()
    for rec in nine_point_records():
        s = blow_up(s, rec)
    return s


def exceptional_chain(weights: tuple[int, ...]) -> tuple[SurfaceModel, tuple[str, ...]]:
    """A chain of smooth rational curves with self-intersections -weights.

    Built as a tower of infinitely-near points over the plane (giving a
    chain of (-2)s ending in a (-1)), then extra generic blow-ups push each
    curve down to its target weight.  Returns (surface, chain curve ids).
    """
    k = len(weights)
    if k == 0 or any(w < 1 for w in weights):
        raise ValueError("weights must be positive integers")
    s = projective_plane()
    s = blow_up(s, BlowUpRecord(point_id="t1"))
    for i in range(2, k + 1):
        s = blow_up(
            s,
            BlowUpRecord(point_id=f"t{i}", incidences=((f"e{i-1}", 1),), near=f"e{i-1}"),
        )
    chain = tuple(f"e{i}" for i in range(1, k + 1))
    for i, w in enumerate(weights, start=1):
        current = 2 if i < k else 1
        for extra in range(w - current):
            s = blow_up(
                s,
                BlowUpRecord(point_id=f"x{i}_{extra}", incidences=((f"e{i}", 1),)),
            )
    return s, chain


def rebuilt(s: SurfaceModel, order=None, **flags) -> SurfaceModel:
    """``s`` built again through a stage, with its catalog in ``order`` (a
    permutation of its curve ids) and the named curves' ``p_a`` or
    ``smooth`` replaced, as in ``rebuilt(s, c0={"p_a": 0})``: catalogs that
    no surface file can declare."""
    stage = _Stage.of(s)
    curves = stage.curves
    if order is not None:
        curves = stage.curves = {cid: curves[cid] for cid in order}
        for i, curve in enumerate(curves.values()):
            curve.position = i
    for cid, fields in flags.items():
        for name, value in fields.items():
            setattr(curves[cid], name, value)
    return stage.model()


FIXTURES = {
    "p2": projective_plane,
    "f2": lambda: hirzebruch(2),
    "f3": lambda: hirzebruch(3),
    "dp3": lambda: del_pezzo(3),
    "dp8": lambda: del_pezzo(8),
    "cubic10": cubic_with_points,
    "star": negative_star,
    "pair": meeting_negative_pair,
    "elliptic_ruled": elliptic_ruled,
    "elliptic_ruled_chain": elliptic_ruled_with_chain,
    "nine_point_pair": nine_point_pair_base,
    "nine_point_resolution": nine_point_resolution,
}


def write_fixtures(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in FIXTURES.items():
        path = directory / f"{name}.json"
        path.write_text(dumps(builder()))
        written.append(path)
    return written


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    for path in write_fixtures(target):
        print(path)
