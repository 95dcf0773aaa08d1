"""Contractions, discrepancies, and singularity classification.

Contracting a negative-definite set of catalog curves determines exact
discrepancies by solving  sum_j a_j (E_j . E_i) = K . E_i  for every
exceptional curve E_i (the boundary-free comparison of canonical classes).
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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidSurfaceData, NotContractible
from .lattice import IntersectionMatrix, Q, format_rational, is_negative_definite, solve_linear
from .surface import SurfaceModel
from .zariski import CurveSet

KLT_TAGS = frozenset({"Smooth", "DuVal", "KltNonCanonical"})
LC_TAGS = KLT_TAGS | {"LcNotKlt", "SimpleElliptic"}


@dataclass(frozen=True)
class SingularityVerdict:
    tag: str
    component: tuple[str, ...]
    extremal_curve: str
    extremal_discrepancy: Q


@dataclass(frozen=True)
class ContractionData:
    exceptional: tuple[str, ...]
    matrix: IntersectionMatrix
    discrepancies: tuple[tuple[str, Q], ...]
    components: tuple[tuple[str, ...], ...]
    verdicts: tuple[SingularityVerdict, ...]
    contracted_canonical_square: Q

    def discrepancy(self, curve_id: str) -> Q:
        for cid, a in self.discrepancies:
            if cid == curve_id:
                return a
        raise KeyError(curve_id)

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(v.tag for v in self.verdicts)


def _as_ids(curves) -> tuple[str, ...]:
    if isinstance(curves, CurveSet):
        return curves.curve_ids
    return tuple(curves)


def connected_components(s: SurfaceModel, curve_ids) -> tuple[tuple[str, ...], ...]:
    """Components of the dual graph (edge iff intersection > 0)."""
    ids = s.ordered(_as_ids(curve_ids))
    classes = {cid: s.curve(cid).divisor_class for cid in ids}
    remaining = list(ids)
    components = []
    while remaining:
        stack = [remaining.pop(0)]
        component = set(stack)
        while stack:
            current = stack.pop()
            for other in list(remaining):
                if classes[current].dot(classes[other]) > 0:
                    remaining.remove(other)
                    component.add(other)
                    stack.append(other)
        components.append(tuple(c for c in ids if c in component))
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


def contract(s: SurfaceModel, curves) -> ContractionData:
    """Contract a negative-definite catalog curve set; solve discrepancies."""
    ids = s.ordered(_as_ids(curves))
    matrix = s.gram_of(ids)
    if not is_negative_definite(matrix):
        raise NotContractible("not contractible")
    rhs = [s.canonical.dot(s.curve(cid).divisor_class) for cid in ids]
    solved = solve_linear(matrix, rhs)
    discs = dict(zip(ids, solved))
    components = connected_components(s, ids)
    verdicts = tuple(_classify(s, comp, discs) for comp in components)
    pulled_back_canonical = s.canonical - s.class_of(discs.items())
    return ContractionData(
        exceptional=ids,
        matrix=matrix,
        discrepancies=tuple(zip(ids, solved)),
        components=components,
        verdicts=verdicts,
        contracted_canonical_square=pulled_back_canonical.square,
    )


def discrepancies_with_boundary(
    s: SurfaceModel, curves, boundary
) -> tuple[tuple[str, Q], ...]:
    """Discrepancies of the pair (Y, boundary) along a contraction.

    ``boundary`` lists (curve_id, coefficient) for the strict transform of
    the downstairs boundary; coefficients must lie in [0, 1] and the curves
    must be disjoint from the contracted set (they are not exceptional).
    Solves  sum_j a_j (E_j . E_i) = (K + boundary) . E_i.
    """
    ids = s.ordered(_as_ids(curves))
    boundary = tuple(boundary)
    for cid, coeff in boundary:
        if not s.has_curve(cid):
            raise InvalidSurfaceData(f"boundary curve {cid!r} not in catalog")
        q = Fraction(coeff)
        if q < 0 or q > 1:
            raise InvalidSurfaceData(
                f"boundary coefficient {format_rational(q)} outside [0, 1]"
            )
        if cid in ids:
            raise InvalidSurfaceData(
                f"boundary curve {cid!r} cannot also be contracted"
            )
    matrix = s.gram_of(ids)
    if not is_negative_definite(matrix):
        raise NotContractible("not contractible")
    log_canonical = s.canonical + s.class_of(boundary)
    rhs = [log_canonical.dot(s.curve(cid).divisor_class) for cid in ids]
    return tuple(zip(ids, solve_linear(matrix, rhs)))


def is_snc_configuration(s: SurfaceModel, curves) -> bool:
    """Simple normal crossings relative to the catalog: every member smooth,
    pairwise intersection numbers 0 or 1.

    Points exist only as blow-up records and are consumed when applied, so
    a persistent triple point is not representable; pairwise transversality
    is the remaining content.
    """
    ids = _as_ids(curves)
    records = [s.curve(cid) for cid in ids]
    if not all(r.smooth for r in records):
        return False
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            if a.divisor_class.dot(b.divisor_class) not in (0, 1):
                return False
    return True


@dataclass(frozen=True)
class DualGraph:
    nodes: tuple[tuple[str, Q, int], ...]  # (curve_id, self-intersection, p_a)
    edges: tuple[tuple[str, str, Q], ...]  # (curve_id, curve_id, weight)

    def to_dot(self) -> str:
        lines = ["graph dual {"]
        for cid, self_int, p_a in self.nodes:
            label = f"{cid}({format_rational(self_int)},{p_a})"
            lines.append(f'  "{cid}" [label="{label}"];')
        for a, b, weight in self.edges:
            lines.append(f'  "{a}" -- "{b}" [label="{format_rational(weight)}"];')
        lines.append("}")
        return "\n".join(lines)


def dual_graph(s: SurfaceModel, curves) -> DualGraph:
    """Weighted dual graph of a curve set, nodes in catalog order."""
    ids = s.ordered(_as_ids(curves))
    records = [s.curve(cid) for cid in ids]
    nodes = tuple((r.curve_id, r.self_intersection, r.p_a) for r in records)
    edges = []
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            weight = a.divisor_class.dot(b.divisor_class)
            if weight > 0:
                edges.append((a.curve_id, b.curve_id, weight))
    return DualGraph(nodes, tuple(edges))
