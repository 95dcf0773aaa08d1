"""Surfaces as iterated blow-ups of a minimal base, with a curve catalog.

A ``SurfaceModel`` is immutable: ``blow_up`` and ``declare_curve`` return new
models.  The catalog holds the curves the user has declared plus the
exceptional curve of every blow-up; every verdict downstream is relative to
this catalog.  Point data exists only as blow-up records — "general
position" is encoded as the absence of declared incidences, and the tool
trusts the declaration.

Models are built by one mutable ``_Stage`` (integral curve classes,
genera, K, incidences) that each declaration or blow-up validates and
updates in place.  ``from_description`` runs a whole file through one stage
and builds one model, and so does each candidate draw of ``corpus``;
``blow_up`` and ``declare_curve`` apply one step.

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
import reprlib
from collections import namedtuple
from itertools import compress
from operator import itemgetter, mul

from .errors import IncompatibleSurfaces, InvalidSurfaceData
from .lattice import (
    DivisorClass,
    Frozen,
    IntersectionMatrix,
    PicardLattice,
    Q,
    _divisor,
    _reduced,
    dual_entries,
    format_rational,
    rational,
    weighted_sum,
)

# the largest Picard rank a surface description may declare; every rank up
# to it finishes in a tested time
MAX_RANK = 64
# the largest catalog a surface description may declare, base curves and
# exceptional curves included.  Loading pairs each declared curve with every
# earlier one, so its time grows with the square of the catalog; the 240
# (-1)-curves of a degree-1 del Pezzo surface fit
MAX_CURVES = 256


class BaseSurface(Frozen):
    """The minimal surface a model starts from: ``kind`` is "P2",
    "hirzebruch" or "ruled"."""

    __slots__ = ("kind", "e", "genus")

    def __init__(self, kind: str, e: int = 0, genus: int = 0):
        if kind == "P2":
            if e or genus:
                raise InvalidSurfaceData("P2 takes no parameters")
        elif kind == "hirzebruch":
            if e < 0:
                raise InvalidSurfaceData("Hirzebruch invariant e must be >= 0")
            if genus:
                raise InvalidSurfaceData("Hirzebruch surfaces have genus 0")
        elif kind == "ruled":
            if genus < 0:
                raise InvalidSurfaceData("base curve genus must be >= 0")
            # e >= -g on every ruled surface (Nagata; Hartshorne V.2.12.1)
            if e < -genus:
                raise InvalidSurfaceData("ruled surface invariant e must be >= -genus")
        else:
            raise InvalidSurfaceData(f"unknown base kind {reprlib.repr(kind)}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "genus", genus)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.e, self.genus) == (other.kind, other.e, other.genus)

    def __hash__(self):
        return hash((self.kind, self.e, self.genus))

    def __repr__(self):
        return f"BaseSurface(kind={self.kind!r}, e={self.e!r}, genus={self.genus!r})"

    def seed(self):
        """The basis labels, the integral Gram block, K's coordinates and the
        seed curves as (id, p_a, provenance)."""
        if self.kind == "P2":
            return ("h",), ((1,),), (-3,), (("h", 0, "base-line"),)
        return (
            ("c0", "f"),
            ((-self.e, 1), (1, 0)),
            (-2, 2 * self.genus - 2 - self.e),
            (("c0", self.genus, "base-section"), ("f", 0, "base-fiber")),
        )

    @property
    def rational(self) -> bool:
        return self.kind in ("P2", "hirzebruch") or self.genus == 0


class CurveRecord(namedtuple("CurveRecord", "curve_id sparse p_a smooth provenance")):
    """One tracked curve: its integral class, as ``sparse``, the nonzero
    coordinates (ascending positions, values) in two tuples; its arithmetic
    genus, smoothness and origin.  ``SurfaceModel.class_of`` gives the
    class as a ``DivisorClass``."""

    __slots__ = ()


class BlowUpRecord(
    namedtuple(
        "BlowUpRecord", "point_id incidences near exceptional_id", defaults=((), None, None)
    )
):
    """A point to blow up, located by its multiplicities on tracked curves.

    ``incidences`` holds (curve id, multiplicity) pairs.  ``near`` marks an
    infinitely-near point on a previous exceptional curve; it is treated as
    an extra multiplicity-1 incidence on that curve.
    """

    __slots__ = ()


class _CurveDecl(namedtuple("_CurveDecl", "curve_id coords p_a smooth after")):
    """Replay data for a user-declared curve (for lossless round-trips);
    ``after`` is the number of blow-ups already applied when declared."""

    __slots__ = ()


class SurfaceModel(Frozen):
    """A surface with its blow-up history and curve catalog.  Equality is
    identity: two models are the same model only if they are one object.

    Every catalog class is integral, so the model keeps an integer
    intersection table: ``meets`` fills a curve's row on first request,
    ``nonzeros`` keeps that row's nonzero entries, read off ``meets``,
    ``degrees`` keeps one scan per class, keyed by the class's numerators,
    and ``gram_of`` keeps one matrix per curve set, sliced off the rows,
    whose one elimination comes with it.  Each catalog record holds its
    class's nonzero positions and values, and the model keeps their
    transpose: one column per lattice axis, the catalog positions and
    values nonzero there.  A row or scan pairs one class with the catalog
    by reading the columns of its dual vector's nonzero entries, so a
    curve's row costs the lengths of the few columns it touches, and a
    dense class such as -K reads them all once.
    ``anticanonical`` (-K) and ``canonical_square`` (K^2) are set when the
    model is built.  Every fill is idempotent, so concurrent readers can at
    worst compute a value twice.

    The constructor is the stage's: every builder runs one ``_Stage``, and
    ``_Stage.model`` hands over the seven fields.
    """

    __slots__ = (
        "base", "blowups", "catalog", "canonical", "lattice", "incidence", "declarations",
        "anticanonical", "canonical_square", "_positions", "_meets", "_nonzeros", "_scans",
        "_grams", "_columns",
    )

    def __init__(
        self,
        base: BaseSurface,
        blowups: tuple[BlowUpRecord, ...],
        catalog: tuple[CurveRecord, ...],
        canonical: DivisorClass,
        lattice: PicardLattice,
        incidence: dict,
        declarations: tuple[_CurveDecl, ...],
    ):
        set_field = object.__setattr__
        set_field(self, "base", base)
        set_field(self, "blowups", blowups)
        set_field(self, "catalog", catalog)
        set_field(self, "canonical", canonical)
        set_field(self, "lattice", lattice)
        set_field(self, "incidence", incidence)
        set_field(self, "declarations", declarations)
        set_field(self, "anticanonical", -canonical)
        set_field(self, "canonical_square", canonical.square)
        set_field(self, "_positions", {r.curve_id: i for i, r in enumerate(catalog)})
        set_field(self, "_meets", {})
        set_field(self, "_nonzeros", {})
        set_field(self, "_scans", {})
        set_field(self, "_grams", {})
        columns = [[] for _ in range(lattice.rank)]
        for position, (idx, vals) in enumerate(r.sparse for r in catalog):
            if len(idx) == 1:  # most catalog classes: one exceptional axis
                columns[idx[0]].append((position, vals[0]))
                continue
            for k, v in zip(idx, vals):
                columns[k].append((position, v))
        set_field(self, "_columns", columns)

    def __repr__(self):
        return (
            f"SurfaceModel(base={self.base!r}, blowups={self.blowups!r}, "
            f"catalog={self.catalog!r}, canonical={self.canonical!r}, "
            f"lattice={self.lattice!r}, incidence={self.incidence!r}, "
            f"declarations={self.declarations!r})"
        )

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def rational(self) -> bool:
        return self.base.rational

    def curve(self, curve_id: str) -> CurveRecord:
        return self.catalog[self.position(curve_id)]

    def has_curve(self, curve_id: str) -> bool:
        return curve_id in self._positions

    def curve_ids(self) -> tuple[str, ...]:
        return tuple(r.curve_id for r in self.catalog)

    def ordered(self, curve_ids) -> tuple[str, ...]:
        """The given ids re-listed in catalog order (determinism helper):
        each catalog id once, however often it is given; others are dropped."""
        positions, catalog = self._positions, self.catalog
        wanted = sorted({positions[c] for c in curve_ids if c in positions})
        return tuple([catalog[p].curve_id for p in wanted])

    def position(self, curve_id: str) -> int:
        """The curve's index in catalog order, which indexes table rows."""
        try:
            return self._positions[curve_id]
        except KeyError:
            raise KeyError(f"no curve {curve_id!r} in catalog") from None

    def meets(self, curve_id: str) -> tuple[int, ...]:
        """The curve's intersection number with every catalog curve, in
        catalog order: one row of the table, paired on first request."""
        row = self._meets.get(curve_id)
        if row is None:
            row = self._meets[curve_id] = self._scan(*self.curve(curve_id).sparse)
        return row

    def nonzeros(self, position: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The nonzero entries of the row of the curve at ``position``, as
        (catalog positions, values), read off ``meets`` on first request:
        its square and the curves it meets, usually a few."""
        entries = self._nonzeros.get(position)
        if entries is None:
            row = self.meets(self.catalog[position].curve_id)
            entries = self._nonzeros[position] = (
                tuple(compress(range(len(row)), row)), tuple(compress(row, row))
            )
        return entries

    def degrees(self, d: DivisorClass) -> tuple[int, ...]:
        """The numerators, over ``d.den``, of d.C for every catalog curve C
        in catalog order.  One scan is kept per class, keyed by its
        numerators (which fix the scan whatever the denominator), so a class
        read again, such as -K by the decomposition and the contraction, or
        P by the decomposition's check and the null locus, is scanned once."""
        if d.lattice is not self.lattice and d.lattice != self.lattice:
            raise IncompatibleSurfaces("incompatible surfaces")
        nums = d.nums
        values = self._scans.get(nums)
        if values is None:
            values = self._scans[nums] = self._scan(range(len(nums)), nums)
        return values

    def _scan(self, positions, values) -> tuple[int, ...]:
        """The integer pairing of the class with ``values`` at the ascending
        ``positions`` with every catalog class, in catalog order: each
        nonzero entry of its dual vector times the column of its axis."""
        row = [0] * len(self.catalog)
        columns = self._columns
        for k, g in dual_entries(self.lattice.gram, positions, values):
            for position, v in columns[k]:
                row[position] += g * v
        return tuple(row)

    def gram_of(self, curve_ids) -> IntersectionMatrix:
        """The Gram matrix of the given ids, in their order.  One matrix is
        kept per curve set: asking again for the same ids returns the same
        object, so its elimination runs once."""
        ids = tuple(curve_ids)
        matrix = self._grams.get(ids)
        if matrix is None:
            positions = [self.position(c) for c in ids]
            rows = map(self.meets, ids)
            if len(positions) > 1:
                entries = tuple(map(itemgetter(*positions), rows))
            else:  # itemgetter takes an index, and with one returns a scalar
                entries = tuple([tuple([row[p] for p in positions]) for row in rows])
            matrix = self._grams[ids] = IntersectionMatrix(ids, entries)
        return matrix

    def class_of(self, components) -> DivisorClass:
        """Sum of coefficient * curve class over (curve_id, Q) pairs."""
        terms = ((self.curve(cid).sparse, c) for cid, c in components)
        total, den = weighted_sum(terms, self.rank)
        return _reduced(self.lattice, tuple(total), den)


def build_base(kind: str, e: int = 0, genus: int = 0) -> SurfaceModel:
    """A fresh model of the named minimal surface with its seed catalog."""
    return _Stage(BaseSurface(kind, e=e, genus=genus)).model()


def declare_curve(
    s: SurfaceModel,
    curve_id: str,
    divisor_class: DivisorClass | tuple,
    p_a: int,
    smooth: bool = True,
) -> SurfaceModel:
    """Add a user-declared curve; adjunction must match the stated genus."""
    if not isinstance(divisor_class, DivisorClass):
        divisor_class = DivisorClass(s.lattice, tuple(rational(x) for x in divisor_class))
    if divisor_class.lattice != s.lattice:
        raise InvalidSurfaceData("declared class lives on a different surface")
    stage = _Stage.of(s)
    stage.declare(curve_id, divisor_class.coords, p_a, smooth)
    return stage.model()


def blow_up(s: SurfaceModel, rec: BlowUpRecord) -> SurfaceModel:
    """Blow up one point; every incident curve is replaced by its strict
    transform and the new exceptional curve joins the catalog."""
    stage = _Stage.of(s)
    stage.blow_up(*rec)
    return stage.model()


class _Curve:
    """A catalog curve in a ``_Stage``.  Its class is integral, stored as
    its nonzeros: ``idx`` holds the ascending positions and ``vals`` the
    values.  A blow-up appends to both, so the class needs no padding."""

    __slots__ = ("position", "idx", "vals", "p_a", "smooth", "provenance")

    def __init__(self, position, idx, vals, p_a, smooth, provenance):
        self.position, self.idx, self.vals = position, idx, vals
        self.p_a, self.smooth, self.provenance = p_a, smooth, provenance


class _Stage:
    """A surface under construction, validated and updated in place by
    ``declare`` and ``blow_up``.  ``curves`` is in catalog order."""

    def __init__(self, base: BaseSurface):
        labels, self.gram, canonical, seeds = base.seed()
        self.base, self.labels, self.canonical = base, list(labels), list(canonical)
        self.curves = {
            cid: _Curve(i, [i], [1], p_a, True, provenance)
            for i, (cid, p_a, provenance) in enumerate(seeds)
        }
        self.incidence, self.declarations = {}, []
        self.blowups, self.points = [], set()

    @classmethod
    def of(cls, s: SurfaceModel) -> "_Stage":
        stage = cls.__new__(cls)
        stage.base, stage.gram = s.base, s.lattice.gram
        stage.labels, stage.canonical = list(s.lattice.labels), list(s.canonical.nums)
        curves = stage.curves = {}
        for i, r in enumerate(s.catalog):
            idx, vals = r.sparse
            curves[r.curve_id] = _Curve(i, list(idx), list(vals), r.p_a, r.smooth, r.provenance)
        stage.incidence, stage.declarations = dict(s.incidence), list(s.declarations)
        stage.blowups, stage.points = list(s.blowups), {b.point_id for b in s.blowups}
        return stage

    def declare(self, curve_id: str, coords: tuple[Q, ...], p_a: int, smooth: bool) -> None:
        """Add a curve whose class has the stage's rank; the checks pair it
        with K and with every catalog class at this stage."""
        if curve_id in self.curves:
            raise InvalidSurfaceData(f"curve id {reprlib.repr(curve_id)} already in catalog")
        # a curve is an integral class on these smooth surfaces
        for label, x in zip(self.labels, coords):
            if x.denominator != 1:
                raise InvalidSurfaceData(
                    f"class of {reprlib.repr(curve_id)}: coordinate {label} = "
                    f"{format_rational(x)} is not an integer"
                )
        nums, curves = [x.numerator for x in coords], self.curves
        idx = [i for i, x in enumerate(nums) if x]
        vals = [nums[i] for i in idx]
        dual = self.dual(idx, vals)
        at = dual.__getitem__
        # C^2 + K.C is even for an integral class, since K is characteristic
        twice = sum(map(mul, map(at, idx), vals)) + sum(map(mul, dual, self.canonical))
        if twice != 2 * (p_a - 1):
            raise InvalidSurfaceData(
                f"adjunction violation for {reprlib.repr(curve_id)}: declared p_a={p_a}, "
                f"computed p_a={format_rational(twice // 2 + 1)}"
            )
        if p_a < 0:
            raise InvalidSurfaceData(f"negative arithmetic genus for {reprlib.repr(curve_id)}")
        # each earlier curve is paired at its own nonzeros
        for other_id, other in curves.items():
            # a copy of a negative curve meets it negatively too
            if sum(map(mul, map(at, other.idx), other.vals)) < 0:
                raise InvalidSurfaceData(
                    f"{reprlib.repr(curve_id)} would meet {reprlib.repr(other_id)} negatively; "
                    "two distinct curves cannot do that"
                )
        # a curve the blow-downs do not contract maps onto a curve of the
        # base, so it meets the pullback of an ample class positively; the
        # contracted ones are the catalog's exceptional curves
        if self.base.kind == "P2":
            ample, degree = "h", dual[0]
        else:
            ample, degree = "c0 + (|e|+1)f", dual[0] + (abs(self.base.e) + 1) * dual[1]
        if degree <= 0:
            raise InvalidSurfaceData(
                f"{reprlib.repr(curve_id)} has degree <= 0 on the ample class {ample} of "
                "the base; every curve but the catalog's exceptional ones has positive degree"
            )
        # an integral curve of arithmetic genus 0 is smooth rational
        if p_a == 0 and not smooth:
            raise InvalidSurfaceData(
                f"{reprlib.repr(curve_id)} has arithmetic genus 0, so it is smooth; "
                "it cannot be declared not smooth"
            )
        curves[curve_id] = _Curve(len(curves), idx, vals, p_a, smooth, "declared-base-curve")
        self.declarations.append(_CurveDecl(curve_id, coords, p_a, smooth, len(self.blowups)))

    def blow_up(self, point_id, incidences=(), near=None, exceptional_id=None) -> None:
        """Apply one blow-up, given as the fields of a ``BlowUpRecord``.
        Every check runs before the first write, so a rejected blow-up
        leaves the stage as it was."""
        curves = self.curves
        seen: dict[str, int] = {}
        for curve_id, mult in incidences:
            if curve_id not in curves:
                raise InvalidSurfaceData(
                    f"blow-up references unknown curve {reprlib.repr(curve_id)}"
                )
            if not isinstance(mult, int) or mult < 1:
                raise InvalidSurfaceData("multiplicities must be integers >= 1")
            if curve_id in seen:
                raise InvalidSurfaceData(
                    f"curve {reprlib.repr(curve_id)} listed twice in one record"
                )
            seen[curve_id] = mult
        if near is not None:
            if near not in curves:
                raise InvalidSurfaceData(
                    f"infinitely-near target {reprlib.repr(near)} not in catalog"
                )
            if curves[near].provenance != "exceptional":
                raise InvalidSurfaceData("infinitely-near points must sit on an exceptional curve")
            seen.setdefault(near, 1)
        incident = tuple(seen.items())
        if len(incident) > 1:  # catalog order for determinism
            incident = tuple(sorted(incident, key=lambda item: curves[item[0]].position))
        point_id = point_id or f"p{len(self.blowups) + 1}"
        if point_id in self.points:
            raise InvalidSurfaceData(f"point id {reprlib.repr(point_id)} already used")
        exc_id = exceptional_id or f"e{len(self.blowups) + 1}"
        if exc_id in curves:
            raise InvalidSurfaceData(f"exceptional id {reprlib.repr(exc_id)} already in use")

        for curve_id, mult in incident:
            if mult < 2:
                continue
            if curves[curve_id].smooth:
                raise InvalidSurfaceData(
                    f"curve {reprlib.repr(curve_id)} is declared smooth; multiplicity {mult} "
                    "requires a singular point"
                )
            if curves[curve_id].p_a < mult * (mult - 1) // 2:
                raise InvalidSurfaceData(
                    f"multiplicity {mult} exceeds what the genus of "
                    f"{reprlib.repr(curve_id)} permits"
                )
        for i, (cid_a, mult_a) in enumerate(incident[:-1]):
            a = curves[cid_a]
            at = self.dual(a.idx, a.vals).__getitem__
            for cid_b, mult_b in incident[i + 1:]:
                b = curves[cid_b]
                total = sum(map(mul, map(at, b.idx), b.vals))
                if mult_a * mult_b > total:
                    raise InvalidSurfaceData(
                        "multiplicity exceeds what intersection numbers permit: "
                        f"{reprlib.repr(cid_a)}.{reprlib.repr(cid_b)} = {total} "
                        f"< {mult_a * mult_b}"
                    )

        # the new axis is orthogonal: a curve through the point gains one
        # coordinate, its multiplicity with the sign of a strict transform
        axis = len(self.labels)
        for curve_id, mult in incident:
            curve = curves[curve_id]
            curve.idx.append(axis)
            curve.vals.append(-mult)
            curve.p_a -= mult * (mult - 1) // 2
            # an integral curve whose genus drops to 0 is smooth rational
            if mult >= 2 and curve.p_a == 0:
                curve.smooth = True
            if curve.provenance != "exceptional":
                curve.provenance = "strict-transform"
        curves[exc_id] = _Curve(len(curves), [axis], [1], 0, True, "exceptional")
        self.labels.append(exc_id)
        self.canonical.append(1)

        incidence = self.incidence
        # the blown-up point separates the incident curves from each other.
        # Only a curve and an exceptional curve share a recorded point, with
        # multiplicity 1 on the smooth exceptional side, so a point through
        # both leaves nothing of it
        for i, (cid_a, _) in enumerate(incident[:-1]):
            for cid_b, _ in incident[i + 1:]:
                incidence.pop((cid_a, cid_b) if cid_a <= cid_b else (cid_b, cid_a), None)
        # every incident curve now meets the new exceptional over this point
        for cid, _ in incident:
            incidence[(cid, exc_id) if cid <= exc_id else (exc_id, cid)] = point_id

        self.blowups.append(BlowUpRecord(point_id, incident, near, exc_id))
        self.points.add(point_id)

    def dual(self, idx, vals) -> list[int]:
        """``dual_entries`` of the class with ``vals`` at ``idx``, laid out
        as a list of the stage's rank, so that pairing it with a catalog
        class reads one entry per nonzero coordinate of that class."""
        dual = [0] * len(self.labels)
        for k, g in dual_entries(self.gram, idx, vals):
            dual[k] = g
        return dual

    def model(self) -> SurfaceModel:
        lattice = PicardLattice(tuple(self.labels), self.gram)
        catalog = tuple(
            CurveRecord(cid, (tuple(c.idx), tuple(c.vals)), c.p_a, c.smooth, c.provenance)
            for cid, c in self.curves.items()
        )
        return SurfaceModel(
            base=self.base,
            blowups=tuple(self.blowups),
            catalog=catalog,
            canonical=_divisor(lattice, tuple(self.canonical), 1),
            lattice=lattice,
            incidence=self.incidence,
            declarations=tuple(self.declarations),
        )


def extend_to(d: DivisorClass, child: SurfaceModel) -> DivisorClass:
    """Pull back a class from an ancestor model (coordinates extend by 0)."""
    labels = child.lattice.labels
    if labels[: d.lattice.rank] != d.lattice.labels:
        raise InvalidSurfaceData("target surface is not a blow-up of the source")
    return _divisor(child.lattice, d.nums + (0,) * (child.rank - d.lattice.rank), d.den)


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


def input_rational(value, where: str) -> Q:
    """``rational`` for a number read from input: a malformed one is an
    input error that names the value, cut short by ``reprlib``."""
    try:
        return rational(value)
    except (ValueError, ZeroDivisionError, TypeError):
        raise InvalidSurfaceData(
            f"{where} {reprlib.repr(value)} is not a rational number"
        ) from None


def input_int(value, where: str) -> int:
    """An integer read from input; anything else, a bool included, is an
    input error that names the value, cut short."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidSurfaceData(f"{where} {reprlib.repr(value)} is not an integer")


def _input_name(value, where: str) -> str:
    """A curve or point id read from input."""
    if isinstance(value, str):
        return value
    raise InvalidSurfaceData(f"{where} {reprlib.repr(value)} is not a string")


def _input_list(value, where: str, of_objects: bool = False) -> list:
    """A JSON array read from input, optionally one of JSON objects."""
    if not isinstance(value, (list, tuple)):
        raise InvalidSurfaceData(f"{where} {reprlib.repr(value)} is not a list")
    if of_objects:
        for entry in value:
            if not isinstance(entry, dict):
                raise InvalidSurfaceData(
                    f"{where}: entry {reprlib.repr(entry)} is not an object"
                )
    return list(value)


def _input_object(value, where: str) -> dict:
    """A JSON object read from input.  Anything else may be a whole file, so
    the message names it cut short."""
    if not isinstance(value, dict):
        raise InvalidSurfaceData(f"{where} {reprlib.repr(value)} is not a JSON object")
    return value


def from_description(data: dict) -> SurfaceModel:
    """The model a surface description declares, read in one pass.

    A blow-up adds an orthogonal (-1)-axis, so after k blow-ups a curve's
    class is the first ``base + k`` coordinates of its final class.  Each
    check at step k (adjunction and meetings of a curve declared there, the
    multiplicity bounds of the next blow-up) pairs stage-k prefixes.

    Each blow-up record is read once: its fields are checked where they are
    read and handed to ``_Stage.blow_up`` as they are, so the one
    ``BlowUpRecord`` built is the one the stage stores.
    """
    data = _input_object(data, "surface description")
    try:
        base = _input_object(data["base"], "base description")
        kind = base["kind"]
    except KeyError as exc:
        raise InvalidSurfaceData(f"missing base description: {exc}") from None
    e = input_int(base.get("e", 0), "base: e")
    stage = _Stage(BaseSurface(kind, e=e, genus=input_int(base.get("genus", 0), "base: genus")))

    curves = _input_list(data.get("curves", []), "curves", of_objects=True)
    blowups = _input_list(data.get("blowups", []), "blowups", of_objects=True)
    if len(stage.labels) + len(blowups) > MAX_RANK:
        raise InvalidSurfaceData(
            f"Picard rank {len(stage.labels) + len(blowups)} exceeds the cap {MAX_RANK}"
        )
    size = len(stage.curves) + len(curves) + len(blowups)
    if size > MAX_CURVES:
        raise InvalidSurfaceData(f"catalog size {size} exceeds the cap {MAX_CURVES}")
    # curves by the stage they join, in file order; a field's message gains
    # its entry's prefix only when the field is refused
    pending: dict[int, list[dict]] = {}
    for entry in curves:
        try:
            after = input_int(entry.get("after", 0), "after")
            if not 0 <= after <= len(blowups):
                raise InvalidSurfaceData(
                    f"after {after} is outside 0..{len(blowups)}, the number of blow-ups"
                )
        except InvalidSurfaceData as exc:
            raise InvalidSurfaceData(f"curve {reprlib.repr(entry.get('id'))}: {exc}") from None
        pending.setdefault(after, []).append(entry)

    def declare_pending(entries: list[dict]):
        for entry in entries:
            try:
                coords = tuple(
                    input_rational(x, "class coordinate")
                    for x in _input_list(entry["class"], "class")
                )
                if len(coords) != len(stage.labels):
                    raise InvalidSurfaceData(
                        f"class has {len(coords)} coordinates, "
                        f"surface has rank {len(stage.labels)}"
                    )
                smooth = entry.get("smooth", True)
                if not isinstance(smooth, bool):
                    raise InvalidSurfaceData(f"smooth {reprlib.repr(smooth)} is not true or false")
                curve_id = _input_name(entry["id"], "id")
                p_a = input_int(entry["pa"], "pa")
            except InvalidSurfaceData as exc:
                raise InvalidSurfaceData(f"curve {reprlib.repr(entry.get('id'))}: {exc}") from None
            stage.declare(curve_id, coords, p_a, smooth)

    # an input helper runs only on a field that is not of the plain JSON
    # type, to refuse it in its one wording (or to pass a str or int subclass)
    try:
        if 0 in pending:
            declare_pending(pending[0])
        for i, entry in enumerate(blowups):
            point_id = None
            try:
                point, on = entry.get("point"), entry.get("on", [])
                if point is not None and point.__class__ is not str:
                    _input_name(point, "point")
                point_id = point or f"p{i + 1}"
                if on.__class__ is not list:
                    on = _input_list(on, "on")
                for pair in on:
                    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                        raise InvalidSurfaceData(
                            f"incidence {reprlib.repr(pair)} is not a [curve, multiplicity] pair"
                        )
                    cid, mult = pair
                    if cid.__class__ is not str:
                        _input_name(cid, "curve")
                    if mult.__class__ is not int:
                        input_int(mult, "multiplicity")
                near, exc_id = entry.get("near"), entry.get("exceptional")
                if near is not None and near.__class__ is not str:
                    _input_name(near, "near")
                if exc_id is not None and exc_id.__class__ is not str:
                    _input_name(exc_id, "exceptional")
            except InvalidSurfaceData as exc:
                where = i + 1 if point_id is None else reprlib.repr(point_id)
                raise InvalidSurfaceData(f"blow-up {where}: {exc}") from None
            stage.blow_up(point_id, on, near, exc_id)
            if i + 1 in pending:
                declare_pending(pending[i + 1])
    except KeyError as exc:
        raise InvalidSurfaceData(f"malformed surface description: missing {exc}") from None
    return stage.model()


_escape = json.encoder.encode_basestring_ascii  # the C function json.dumps uses


def json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for
    str-keyed dicts, lists and tuples, strings, ints, booleans and None.
    A ``SurfaceModel`` is written as ``to_description`` of it would be,
    straight from its records.

    CPython runs its C encoder only when ``indent`` is None; with an indent
    json.dumps runs a pure-Python generator, and this one walk takes about
    half its time.  Anything else, a float or a non-str key included,
    raises TypeError: reports are exact.
    """
    parts = []
    append = parts.append

    def write(v, nl):
        if isinstance(v, str):
            append(_escape(v))
        elif isinstance(v, (list, tuple)):
            if not v:
                append("[]")
                return
            inner = nl + "  "
            sep, rest = "[" + inner, "," + inner
            if isinstance(v[0], str):
                # a list of strings, such as a class, in one join; at the
                # first non-string the item loop writes it instead
                try:
                    append(f"{sep}{rest.join(map(_escape, v))}{nl}]")
                    return
                except TypeError:
                    pass
            for item in v:
                append(sep)
                sep = rest
                write(item, inner)
            append(nl + "]")
        elif isinstance(v, dict):
            if not v:
                append("{}")
                return
            inner = nl + "  "
            sep, rest = "{" + inner, "," + inner
            for key in sorted(v):
                if not isinstance(key, str):
                    raise TypeError(f"JSON key {key!r} is not a string")
                append(sep)
                sep = rest
                append(_escape(key))
                append(": ")
                write(v[key], inner)
            append(nl + "}")
        elif v is True:
            append("true")
        elif v is False:
            append("false")
        elif v is None:
            append("null")
        elif isinstance(v, int):
            append(int.__repr__(v))
        elif isinstance(v, SurfaceModel):
            append(_surface_text(v, nl))
        else:
            raise TypeError(f"{type(v).__name__} {v!r} is not an exact JSON value")

    write(value, "\n")
    return "".join(parts)


def _json_list(items: list[str], nl: str) -> str:
    """A JSON array of already written values, indented as ``json_text``
    indents it at line prefix ``nl``."""
    if not items:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _surface_text(s: SurfaceModel, nl: str) -> str:
    """``json_text(to_description(s))`` at line prefix ``nl``, written
    straight from the model's records, one f-string per record; keys are
    in sorted order."""
    i1 = nl + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    i4 = i3 + "  "
    i5 = i4 + "  "
    b = s.base
    base = f'"kind": {_escape(b.kind)}'
    if b.kind == "ruled":
        base = f'"e": {b.e},{i2}"genus": {b.genus},{i2}{base}'
    elif b.kind == "hirzebruch":
        base = f'"e": {b.e},{i2}{base}'
    curves = []
    for d in s.declarations:
        after = f'"after": {d.after},{i3}' if d.after else ""
        coords = _json_list([f'"{format_rational(x)}"' for x in d.coords], i3)
        curves.append(
            f'{{{i3}{after}"class": {coords},{i3}"id": {_escape(d.curve_id)},'
            f'{i3}"pa": {d.p_a},{i3}"smooth": {"true" if d.smooth else "false"}{i2}}}'
        )
    blowups = []
    for r in s.blowups:
        near = "" if r.near is None else f'"near": {_escape(r.near)},{i3}'
        on = _json_list(
            [f"[{i5}{_escape(cid)},{i5}{mult}{i4}]" for cid, mult in r.incidences], i3
        )
        blowups.append(
            f'{{{i3}"exceptional": {_escape(r.exceptional_id)},{i3}{near}"on": {on},'
            f'{i3}"point": {_escape(r.point_id)}{i2}}}'
        )
    return (
        f'{{{i1}"base": {{{i2}{base}{i1}}},{i1}"blowups": {_json_list(blowups, i1)},'
        f'{i1}"curves": {_json_list(curves, i1)}{nl}}}'
    )


def dumps(s: SurfaceModel) -> str:
    return json_text(s) + "\n"


def loads(text: str) -> SurfaceModel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSurfaceData(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an int literal too long to convert
        raise InvalidSurfaceData(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise InvalidSurfaceData("invalid JSON: nested too deeply") from None
    return from_description(data)
