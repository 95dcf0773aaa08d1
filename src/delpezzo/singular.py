"""Contractions, discrepancies, and singularity classification.

Contracting a negative-definite set of catalog curves f: X -> Y determines
exact discrepancies by solving  sum_j a_j (E_j . E_i) = K . E_i  for every
exceptional curve E_i (the boundary-free comparison of canonical classes).
With a boundary B on Y, whose strict transform on X is also written B, the
discrepancies of the pair (Y, B) solve  sum_j a_j (E_j . E_i) = (K + B) . E_i,
that is  K + B = f^*(K_Y + B) + sum_j a_j E_j.  One solver serves both.
Each connected component of the exceptional dual graph gets one verdict
read off the discrepancy profile:

* all a_i > 0            -> Smooth   (iterated blow-down of a smooth point)
* all a_i = 0            -> DuVal
* min a_i in (-1, 0]     -> KltNonCanonical (with some a_i != 0)
* min a_i = -1           -> SimpleElliptic when the component is a single
                            smooth curve of genus one, else LcNotKlt
* min a_i < -1           -> WorseThanLc

Smoothness of a curve is a declared flag: intersection numbers cannot tell
a nodal from a smooth member of the same class, and the contraction of a
nodal genus-one curve must be distinguishable from a simple elliptic point.

Every pair entry point reads its boundary, an iterable of (curve_id,
coefficient) pairs, with ``_as_boundary``: string ids in the catalog, each
once and not contracted, and rational coefficients in [0, 1], else
InvalidSurfaceData; zero terms are then dropped.
"""
from __future__ import annotations

from collections import namedtuple
from operator import mul

from .errors import InvalidSurfaceData, NotContractible
from .lattice import Q, _solve_integers, format_rational, is_negative_definite
from .surface import SurfaceModel, input_rational

KLT_TAGS = frozenset({"Smooth", "DuVal", "KltNonCanonical"})
LC_TAGS = KLT_TAGS | {"LcNotKlt", "SimpleElliptic"}


SingularityVerdict = namedtuple(
    "SingularityVerdict", "tag component extremal_curve extremal_discrepancy"
)


class ContractionData(
    namedtuple(
        "ContractionData",
        "exceptional matrix discrepancies components verdicts contracted_canonical_square",
    )
):
    __slots__ = ()

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(v.tag for v in self.verdicts)


def _as_ids(s: SurfaceModel, curves) -> tuple[str, ...]:
    """The ids of an iterable of ids, in catalog order.  A string, anything
    not iterable, an id that is not a string and an id outside the catalog
    are InvalidSurfaceData."""
    if isinstance(curves, str):
        raise InvalidSurfaceData(f"curve set {curves!r} is a string, not a list of curve ids")
    try:
        ids = tuple(curves)
    except TypeError:
        raise InvalidSurfaceData(f"curve set {curves!r} is not a list of curve ids") from None
    for cid in ids:
        if not isinstance(cid, str):
            raise InvalidSurfaceData(f"curve {cid!r} is not a string")
        if not s.has_curve(cid):
            raise InvalidSurfaceData(f"curve {cid!r} not in catalog")
    return s.ordered(ids)


def connected_components(s: SurfaceModel, curve_ids) -> tuple[tuple[str, ...], ...]:
    """Components of the dual graph (edge iff intersection > 0)."""
    ids = _as_ids(s, curve_ids)
    entries = s.gram_of(ids).entries
    remaining = list(range(len(ids)))
    components = []
    while remaining:
        stack = [remaining.pop(0)]
        component = set(stack)
        while stack:
            row = entries[stack.pop()]
            for other in list(remaining):
                if row[other] > 0:
                    remaining.remove(other)
                    component.add(other)
                    stack.append(other)
        components.append(tuple(ids[i] for i in sorted(component)))
    return tuple(components)


def _classify(s: SurfaceModel, component: tuple[str, ...], discs: dict) -> SingularityVerdict:
    values = [(cid, discs[cid]) for cid in component]
    extremal_curve, extremal = min(values, key=lambda item: (item[1], component.index(item[0])))
    if extremal < -1:
        tag = "WorseThanLc"
    elif extremal == -1:
        only = s.curve(component[0])
        if len(component) == 1 and only.smooth and only.p_a == 1:
            tag = "SimpleElliptic"
        else:
            tag = "LcNotKlt"
    elif all(a == 0 for _, a in values):
        tag = "DuVal"
    elif extremal > 0:
        tag = "Smooth"
    else:
        tag = "KltNonCanonical"
    return SingularityVerdict(tag, component, extremal_curve, extremal)


def _as_boundary(s: SurfaceModel, boundary, contracted=()) -> tuple[tuple[str, Q], ...]:
    """The terms of ``boundary`` as Fractions, checked as the module
    docstring says, without its zero terms."""
    try:
        boundary = tuple(boundary)
    except TypeError:
        raise InvalidSurfaceData(
            f"boundary {boundary!r} is not a list of (curve id, coefficient) terms"
        ) from None
    terms = {}
    for term in boundary:
        if not isinstance(term, (tuple, list)) or len(term) != 2:
            raise InvalidSurfaceData(
                f"boundary term {term!r} is not a (curve id, coefficient) pair"
            )
        cid, coeff = term
        if not isinstance(cid, str):
            raise InvalidSurfaceData(f"boundary curve {cid!r} is not a string")
        q = input_rational(coeff, "boundary coefficient")
        if not s.has_curve(cid):
            raise InvalidSurfaceData(f"boundary curve {cid!r} not in catalog")
        if q.numerator < 0 or q.numerator > q.denominator:
            raise InvalidSurfaceData(f"boundary coefficient {format_rational(q)} outside [0, 1]")
        if cid in terms:
            raise InvalidSurfaceData(f"boundary curve {cid!r} listed twice")
        if cid in contracted:
            raise InvalidSurfaceData(f"boundary curve {cid!r} cannot also be contracted")
        terms[cid] = q
    return tuple((cid, q) for cid, q in terms.items() if q)


def _solve(s: SurfaceModel, curves, boundary):
    """The catalog-ordered ids of ``curves``, their Gram matrix M, the
    numerators of (K + boundary) . E_i over the denominator of
    K + boundary, and the solution a of  M a = ((K + boundary) . E_i)  as
    integer numerators over one positive denominator.  The right-hand side
    is read off the scan of -(K + boundary), which is the scan of -K that
    the decomposition made when there is no boundary.  The boundary is read
    first, so an empty set still rejects a malformed boundary."""
    ids = _as_ids(s, curves)
    boundary = _as_boundary(s, boundary, ids)
    matrix = s.gram_of(ids)
    if not is_negative_definite(matrix):
        raise NotContractible("not contractible")
    target = s.anticanonical - s.class_of(boundary) if boundary else s.anticanonical
    degrees = s.degrees(target)
    rhs = [-degrees[s.position(cid)] for cid in ids]
    nums, den = _solve_integers(matrix, rhs)
    return ids, matrix, rhs, nums, den * target.den


def contract(s: SurfaceModel, curves) -> ContractionData:
    """Contract a negative-definite catalog curve set; solve discrepancies.

    K_Y^2 is read off the solve, not squared from a class: M a = K.E gives
    (K - sum a_i E_i)^2 = K^2 - sum a_i (K.E_i), and K is integral, so the
    right-hand side is the integers K.E_i."""
    ids, matrix, rhs, nums, den = _solve(s, curves, ())
    solved = tuple(Q(v, den) for v in nums)
    discs = dict(zip(ids, solved))
    components = connected_components(s, ids)
    verdicts = tuple(_classify(s, comp, discs) for comp in components)
    return ContractionData(
        exceptional=ids,
        matrix=matrix,
        discrepancies=tuple(zip(ids, solved)),
        components=components,
        verdicts=verdicts,
        contracted_canonical_square=s.canonical_square - Q(sum(map(mul, nums, rhs)), den),
    )


def discrepancies_with_boundary(
    s: SurfaceModel, curves, boundary
) -> tuple[tuple[str, Q], ...]:
    """Discrepancies of the pair (Y, boundary) along a contraction.

    ``boundary`` lists (curve_id, coefficient) for the strict transform of
    the downstairs boundary, read by ``_as_boundary``: its curves are not in
    the contracted set (they are not exceptional), but they may meet it,
    and B . E_i != 0 only where they do.
    Solves  sum_j a_j (E_j . E_i) = (K + boundary) . E_i.
    """
    ids, _, _, nums, den = _solve(s, curves, boundary)
    return tuple((cid, Q(v, den)) for cid, v in zip(ids, nums))


def is_snc_configuration(s: SurfaceModel, curves) -> bool:
    """Simple normal crossings relative to the catalog: every member smooth,
    pairwise intersection numbers 0 or 1.

    Points exist only as blow-up records and are consumed when applied, so
    a persistent triple point is not representable; pairwise transversality
    is the remaining content.
    """
    ids = _as_ids(s, curves)
    if not all(s.curve(cid).smooth for cid in ids):
        return False
    entries = s.gram_of(ids).entries
    return all(v in (0, 1) for i, row in enumerate(entries) for v in row[i + 1:])


def _dot_string(text: str) -> str:
    """A DOT quoted string, with backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class DualGraph(namedtuple("DualGraph", "nodes edges")):
    """``nodes`` holds (curve_id, self-intersection, p_a) triples, ``edges``
    (curve_id, curve_id, weight) triples; the numbers are ints."""

    __slots__ = ()

    def to_dot(self) -> str:
        lines = ["graph dual {"]
        for cid, self_int, p_a in self.nodes:
            label = _dot_string(f"{cid}({format_rational(self_int)},{p_a})")
            lines.append(f"  {_dot_string(cid)} [label={label}];")
        for a, b, weight in self.edges:
            weight = _dot_string(format_rational(weight))
            lines.append(f"  {_dot_string(a)} -- {_dot_string(b)} [label={weight}];")
        lines.append("}")
        return "\n".join(lines)


def dual_graph(s: SurfaceModel, curves) -> DualGraph:
    """Weighted dual graph of a curve set, nodes in catalog order."""
    ids = _as_ids(s, curves)
    nodes, edges = [], []
    for i, (a, row) in enumerate(zip(ids, s.gram_of(ids).entries)):
        nodes.append((a, row[i], s.curve(a).p_a))
        edges.extend((a, b, w) for b, w in zip(ids[i + 1:], row[i + 1:]) if w > 0)
    return DualGraph(tuple(nodes), tuple(edges))
