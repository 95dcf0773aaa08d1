"""Surfaces as iterated blow-ups of a minimal base, with a curve catalog.

A ``SurfaceModel`` is immutable: ``blow_up`` and ``declare_curve`` return new
models.  The catalog holds the curves the user has declared plus the
exceptional curve of every blow-up; every verdict downstream is relative to
this catalog.  Point data exists only as blow-up records — "general
position" is encoded as the absence of declared incidences, and the tool
trusts the declaration.

Conventions for the seeded bases:

* projective plane: basis ``h`` (a line), K = -3h;
* Hirzebruch surface of invariant e: basis ``c0`` (the negative section,
  c0^2 = -e) and ``f`` (a fiber), K = -2c0 - (2+e) f;
* relatively minimal ruled surface over a genus-g curve: same basis with
  K = -2c0 + (2g-2-e) f.  Only numerical classes are tracked there, since
  linear and numerical equivalence differ off the rational case.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import InvalidSurfaceData
from .lattice import (
    DivisorClass,
    IntersectionMatrix,
    PicardLattice,
    Q,
    format_rational,
    rational,
)


@dataclass(frozen=True)
class BaseSurface:
    """The minimal surface a model starts from."""

    kind: str  # "P2" | "hirzebruch" | "ruled"
    e: int = 0
    genus: int = 0

    def __post_init__(self):
        if self.kind == "P2":
            if self.e or self.genus:
                raise InvalidSurfaceData("P2 takes no parameters")
        elif self.kind == "hirzebruch":
            if self.e < 0:
                raise InvalidSurfaceData("Hirzebruch invariant e must be >= 0")
            if self.genus:
                raise InvalidSurfaceData("Hirzebruch surfaces have genus 0")
        elif self.kind == "ruled":
            if self.genus < 0:
                raise InvalidSurfaceData("base curve genus must be >= 0")
        else:
            raise InvalidSurfaceData(f"unknown base kind {self.kind!r}")

    def lattice(self) -> PicardLattice:
        if self.kind == "P2":
            return PicardLattice(("h",), ((Q(1),),))
        gram = ((Q(-self.e), Q(1)), (Q(1), Q(0)))
        return PicardLattice(("c0", "f"), gram)

    def canonical_coords(self) -> tuple[Q, ...]:
        if self.kind == "P2":
            return (Q(-3),)
        return (Q(-2), Q(2 * self.genus - 2 - self.e))

    @property
    def rational(self) -> bool:
        return self.kind in ("P2", "hirzebruch") or self.genus == 0


@dataclass(frozen=True)
class CurveRecord:
    """One tracked curve: class, arithmetic genus, smoothness, origin."""

    curve_id: str
    divisor_class: DivisorClass
    p_a: int
    smooth: bool
    provenance: str

    @property
    def self_intersection(self) -> Q:
        return self.divisor_class.square


@dataclass(frozen=True)
class BlowUpRecord:
    """A point to blow up, located by its multiplicities on tracked curves.

    ``near`` marks an infinitely-near point on a previous exceptional curve;
    it is treated as an extra multiplicity-1 incidence on that curve.
    """

    point_id: str
    incidences: tuple[tuple[str, int], ...] = ()
    near: str | None = None
    exceptional_id: str | None = None


# One recorded shared point between a pair of curves: (point id, local
# multiplicity on the first curve of the sorted pair, on the second).
SharedPoint = tuple[str, int, int]


@dataclass(frozen=True)
class _CurveDecl:
    """Replay data for a user-declared curve (for lossless round-trips)."""

    curve_id: str
    coords: tuple[Q, ...]
    p_a: int
    smooth: bool
    after: int  # number of blow-ups already applied when declared


@dataclass(frozen=True, eq=False)
class SurfaceModel:
    base: BaseSurface
    blowups: tuple[BlowUpRecord, ...]
    catalog: tuple[CurveRecord, ...]
    canonical: DivisorClass
    lattice: PicardLattice
    incidence: dict
    declarations: tuple[_CurveDecl, ...]

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def anticanonical(self) -> DivisorClass:
        return -self.canonical

    @property
    def rational(self) -> bool:
        return self.base.rational

    @cached_property
    def _curves_by_id(self) -> dict[str, CurveRecord]:
        return {r.curve_id: r for r in self.catalog}

    def curve(self, curve_id: str) -> CurveRecord:
        try:
            return self._curves_by_id[curve_id]
        except KeyError:
            raise KeyError(f"no curve {curve_id!r} in catalog") from None

    def has_curve(self, curve_id: str) -> bool:
        return curve_id in self._curves_by_id

    def curve_ids(self) -> tuple[str, ...]:
        return tuple(r.curve_id for r in self.catalog)

    def ordered(self, curve_ids) -> tuple[str, ...]:
        """The given ids re-listed in catalog order (determinism helper)."""
        wanted = set(curve_ids)
        return tuple(r.curve_id for r in self.catalog if r.curve_id in wanted)

    def gram_of(self, curve_ids) -> IntersectionMatrix:
        ids = tuple(curve_ids)
        classes = [self.curve(c).divisor_class for c in ids]
        entries = tuple(
            tuple(a.dot(b) for b in classes) for a in classes
        )
        return IntersectionMatrix(ids, entries)

    def class_of(self, components) -> DivisorClass:
        """Sum of coefficient * curve class over (curve_id, Q) pairs."""
        total = self.lattice.zero()
        for curve_id, coeff in components:
            total = total + self.curve(curve_id).divisor_class.scale(coeff)
        return total

    def shared_points(self, a: str, b: str) -> tuple[SharedPoint, ...]:
        key = (a, b) if a <= b else (b, a)
        return self.incidence.get(key, ())


def arithmetic_genus(s: SurfaceModel, divisor_class: DivisorClass) -> Q:
    """(C^2 + K.C)/2 + 1, the adjunction genus of a class."""
    return (divisor_class.square + s.canonical.dot(divisor_class)) / 2 + 1


def build_base(kind: str, e: int = 0, genus: int = 0) -> SurfaceModel:
    """A fresh model of the named minimal surface with its seed catalog."""
    base = BaseSurface(kind, e=e, genus=genus)
    lattice = base.lattice()
    canonical = DivisorClass(lattice, base.canonical_coords())
    if kind == "P2":
        catalog = (
            CurveRecord("h", lattice.basis_class("h"), 0, True, "base-line"),
        )
    else:
        catalog = (
            CurveRecord("c0", lattice.basis_class("c0"), genus, True, "base-section"),
            CurveRecord("f", lattice.basis_class("f"), 0, True, "base-fiber"),
        )
    return SurfaceModel(
        base=base,
        blowups=(),
        catalog=catalog,
        canonical=canonical,
        lattice=lattice,
        incidence={},
        declarations=(),
    )


def declare_curve(
    s: SurfaceModel,
    curve_id: str,
    divisor_class: DivisorClass | tuple,
    p_a: int,
    smooth: bool = True,
) -> SurfaceModel:
    """Add a user-declared curve; adjunction must match the stated genus."""
    if s.has_curve(curve_id):
        raise InvalidSurfaceData(f"curve id {curve_id!r} already in catalog")
    if not isinstance(divisor_class, DivisorClass):
        coords = tuple(rational(x) for x in divisor_class)
        divisor_class = DivisorClass(s.lattice, coords)
    if divisor_class.lattice != s.lattice:
        raise InvalidSurfaceData("declared class lives on a different surface")
    expected = arithmetic_genus(s, divisor_class)
    if expected != p_a:
        raise InvalidSurfaceData(
            f"adjunction violation for {curve_id!r}: declared p_a={p_a}, "
            f"computed p_a={format_rational(expected)}"
        )
    if p_a < 0:
        raise InvalidSurfaceData(f"negative arithmetic genus for {curve_id!r}")
    for other in s.catalog:
        if divisor_class.dot(other.divisor_class) < 0 and divisor_class != other.divisor_class:
            raise InvalidSurfaceData(
                f"{curve_id!r} would meet {other.curve_id!r} negatively; "
                "two distinct curves cannot do that"
            )
    record = CurveRecord(curve_id, divisor_class, p_a, smooth, "declared-base-curve")
    decl = _CurveDecl(curve_id, divisor_class.coords, p_a, smooth, len(s.blowups))
    return replace(
        s,
        catalog=s.catalog + (record,),
        declarations=s.declarations + (decl,),
    )


def _normalized_incidences(s: SurfaceModel, rec: BlowUpRecord) -> list[tuple[str, int]]:
    seen: dict[str, int] = {}
    for curve_id, mult in rec.incidences:
        if not s.has_curve(curve_id):
            raise InvalidSurfaceData(f"blow-up references unknown curve {curve_id!r}")
        if not isinstance(mult, int) or mult < 1:
            raise InvalidSurfaceData("multiplicities must be integers >= 1")
        if curve_id in seen:
            raise InvalidSurfaceData(f"curve {curve_id!r} listed twice in one record")
        seen[curve_id] = mult
    if rec.near is not None:
        if not s.has_curve(rec.near):
            raise InvalidSurfaceData(f"infinitely-near target {rec.near!r} not in catalog")
        if s.curve(rec.near).provenance not in ("exceptional", "strict-transform"):
            raise InvalidSurfaceData("infinitely-near points must sit on an exceptional curve")
        seen.setdefault(rec.near, 1)
    # catalog order for determinism
    return [(r.curve_id, seen[r.curve_id]) for r in s.catalog if r.curve_id in seen]


def blow_up(s: SurfaceModel, rec: BlowUpRecord) -> SurfaceModel:
    """Blow up one point; every incident curve is replaced by its strict
    transform and the new exceptional curve joins the catalog."""
    incident = _normalized_incidences(s, rec)
    point_id = rec.point_id or f"p{len(s.blowups) + 1}"
    if any(b.point_id == point_id for b in s.blowups):
        raise InvalidSurfaceData(f"point id {point_id!r} already used")
    exc_id = rec.exceptional_id or f"e{len(s.blowups) + 1}"
    if s.has_curve(exc_id) or exc_id in s.lattice.labels:
        raise InvalidSurfaceData(f"exceptional id {exc_id!r} already in use")

    for curve_id, mult in incident:
        record = s.curve(curve_id)
        if mult >= 2:
            if record.smooth:
                raise InvalidSurfaceData(
                    f"curve {curve_id!r} is declared smooth; multiplicity {mult} "
                    "requires a singular point"
                )
            if record.p_a < mult * (mult - 1) // 2:
                raise InvalidSurfaceData(
                    f"multiplicity {mult} exceeds what the genus of {curve_id!r} permits"
                )
    for i, (cid_a, mult_a) in enumerate(incident):
        class_a = s.curve(cid_a).divisor_class
        for cid_b, mult_b in incident[i + 1:]:
            available = class_a.dot(s.curve(cid_b).divisor_class)
            if mult_a * mult_b > available:
                raise InvalidSurfaceData(
                    f"multiplicity exceeds what intersection numbers permit: "
                    f"{cid_a!r}.{cid_b!r} = {format_rational(available)} < {mult_a * mult_b}"
                )

    new_lattice = s.lattice.extended(exc_id)
    exc_class = new_lattice.basis_class(exc_id)
    incident_map = dict(incident)

    new_catalog = []
    for record in s.catalog:
        lifted = DivisorClass(new_lattice, record.divisor_class.coords + (Q(0),))
        mult = incident_map.get(record.curve_id, 0)
        if mult:
            lifted = lifted - exc_class.scale(mult)
            provenance = (
                "exceptional"
                if record.provenance == "exceptional"
                else "strict-transform"
            )
            new_catalog.append(
                replace(
                    record,
                    divisor_class=lifted,
                    p_a=record.p_a - mult * (mult - 1) // 2,
                    provenance=provenance,
                )
            )
        else:
            new_catalog.append(replace(record, divisor_class=lifted))
    new_catalog.append(CurveRecord(exc_id, exc_class, 0, True, "exceptional"))

    canonical = DivisorClass(new_lattice, s.canonical.coords + (Q(0),)) + exc_class

    incidence = {
        key: entries for key, entries in s.incidence.items()
    }
    # the blown-up point separates the incident curves from each other
    for i, (cid_a, mult_a) in enumerate(incident):
        for cid_b, mult_b in incident[i + 1:]:
            key = (cid_a, cid_b) if cid_a <= cid_b else (cid_b, cid_a)
            entries = list(incidence.get(key, ()))
            if entries:
                pid, m1, m2 = entries[-1]
                da, db = (mult_a, mult_b) if key == (cid_a, cid_b) else (mult_b, mult_a)
                m1, m2 = m1 - da, m2 - db
                if m1 > 0 and m2 > 0:
                    entries[-1] = (pid, m1, m2)
                else:
                    entries.pop()
            if entries:
                incidence[key] = tuple(entries)
            else:
                incidence.pop(key, None)
    # every incident curve now meets the new exceptional over this point
    for cid, mult in incident:
        key = (cid, exc_id) if cid <= exc_id else (exc_id, cid)
        entry = (point_id, mult, 1) if key == (cid, exc_id) else (point_id, 1, mult)
        incidence[key] = incidence.get(key, ()) + (entry,)

    stored = BlowUpRecord(
        point_id=point_id,
        incidences=tuple(incident),
        near=rec.near,
        exceptional_id=exc_id,
    )
    return SurfaceModel(
        base=s.base,
        blowups=s.blowups + (stored,),
        catalog=tuple(new_catalog),
        canonical=canonical,
        lattice=new_lattice,
        incidence=incidence,
        declarations=s.declarations,
    )


def extend_to(d: DivisorClass, child: SurfaceModel) -> DivisorClass:
    """Pull back a class from an ancestor model (coordinates extend by 0)."""
    labels = child.lattice.labels
    if labels[: d.lattice.rank] != d.lattice.labels:
        raise InvalidSurfaceData("target surface is not a blow-up of the source")
    pad = (Q(0),) * (child.rank - d.lattice.rank)
    return DivisorClass(child.lattice, d.coords + pad)


# ---------------------------------------------------------------------------
# serialization (canonical, lossless)

def to_description(s: SurfaceModel) -> dict:
    base: dict = {"kind": s.base.kind}
    if s.base.kind == "hirzebruch":
        base["e"] = s.base.e
    elif s.base.kind == "ruled":
        base["e"] = s.base.e
        base["genus"] = s.base.genus
    curves = []
    for decl in s.declarations:
        entry = {
            "id": decl.curve_id,
            "class": [format_rational(x) for x in decl.coords],
            "pa": decl.p_a,
            "smooth": decl.smooth,
        }
        if decl.after:
            entry["after"] = decl.after
        curves.append(entry)
    blowups = []
    for rec in s.blowups:
        entry = {
            "point": rec.point_id,
            "exceptional": rec.exceptional_id,
            "on": [[cid, mult] for cid, mult in rec.incidences],
        }
        if rec.near is not None:
            entry["near"] = rec.near
        blowups.append(entry)
    return {"base": base, "curves": curves, "blowups": blowups}


def from_description(data: dict, max_rank: int = 64) -> SurfaceModel:
    try:
        base = data["base"]
        kind = base["kind"]
    except (KeyError, TypeError) as exc:
        raise InvalidSurfaceData(f"missing base description: {exc}") from None
    s = build_base(kind, e=int(base.get("e", 0)), genus=int(base.get("genus", 0)))

    curves = list(data.get("curves", ()))
    blowups = list(data.get("blowups", ()))
    if s.rank + len(blowups) > max_rank:
        raise InvalidSurfaceData(
            f"Picard rank {s.rank + len(blowups)} exceeds the cap {max_rank}"
        )

    def declare_pending(after: int):
        nonlocal s
        for entry in curves:
            if int(entry.get("after", 0)) == after:
                coords = tuple(rational(x) for x in entry["class"])
                if len(coords) != s.rank:
                    raise InvalidSurfaceData(
                        f"curve {entry.get('id')!r}: class has {len(coords)} "
                        f"coordinates, surface has rank {s.rank}"
                    )
                s = declare_curve(
                    s,
                    entry["id"],
                    DivisorClass(s.lattice, coords),
                    int(entry["pa"]),
                    bool(entry.get("smooth", True)),
                )

    try:
        declare_pending(0)
        for i, entry in enumerate(blowups):
            rec = BlowUpRecord(
                point_id=entry.get("point") or f"p{i + 1}",
                incidences=tuple(
                    (str(cid), int(mult)) for cid, mult in entry.get("on", ())
                ),
                near=entry.get("near"),
                exceptional_id=entry.get("exceptional"),
            )
            s = blow_up(s, rec)
            declare_pending(i + 1)
    except KeyError as exc:
        raise InvalidSurfaceData(f"malformed surface description: missing {exc}") from None
    return s


def dumps(s: SurfaceModel) -> str:
    return json.dumps(to_description(s), sort_keys=True, indent=2) + "\n"


def loads(text: str, max_rank: int = 64) -> SurfaceModel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSurfaceData(f"invalid JSON: {exc}") from None
    return from_description(data, max_rank=max_rank)
