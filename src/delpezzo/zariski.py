"""Zariski decomposition and positivity tests, relative to the catalog.

The decomposition uses the standard support-growing iteration: collect the
catalog curves on which the divisor is negative, solve for the unique
combination orthogonal to all of them, and enlarge the support while new
catalog curves become negative.  With exact arithmetic the result, when the
iteration converges, satisfies every defining property on the nose; failure
to converge is reported as "catalog insufficient or divisor not
pseudo-effective" — there is no finite test separating the two causes.

Every positivity verdict produced here is relative to the declared catalog.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CatalogInsufficient, InternalInconsistency
from .lattice import DivisorClass, IntersectionMatrix, Q, is_negative_definite, solve_linear
from .surface import SurfaceModel

CATALOG_CAVEAT = "relative to declared catalog"


@dataclass(frozen=True)
class ZariskiDecomposition:
    original: DivisorClass
    positive: DivisorClass
    negative: tuple[tuple[str, Q], ...]
    support_matrix: IntersectionMatrix

    @property
    def positive_square(self) -> Q:
        return self.positive.square

    def coefficient(self, curve_id: str) -> Q:
        for cid, coeff in self.negative:
            if cid == curve_id:
                return coeff
        return Q(0)

    @property
    def max_coefficient(self) -> Q:
        return max((c for _, c in self.negative), default=Q(0))


@dataclass(frozen=True)
class CurveSet:
    """A set of catalog curves."""

    curve_ids: tuple[str, ...]


def zariski_decompose(s: SurfaceModel, d: DivisorClass) -> ZariskiDecomposition:
    """Split d = P + N with P nonnegative on the catalog and orthogonal to
    the negative-definite support of N."""
    support: list[str] = []
    rounds = 0
    while True:
        rounds += 1
        if len(support) >= s.rank or rounds > s.rank + 1:
            raise CatalogInsufficient(
                "catalog insufficient or divisor not pseudo-effective"
            )
        matrix = s.gram_of(support)
        if support and not is_negative_definite(matrix):
            raise CatalogInsufficient(
                "catalog insufficient or divisor not pseudo-effective"
            )
        rhs = [d.dot(s.curve(cid).divisor_class) for cid in support]
        coeffs = solve_linear(matrix, rhs)
        negative_part = s.class_of(zip(support, coeffs))
        positive = d - negative_part
        newly_negative = [
            r.curve_id
            for r in s.catalog
            if r.curve_id not in support and positive.dot(r.divisor_class) < 0
        ]
        if not newly_negative:
            break
        support = [
            r.curve_id
            for r in s.catalog
            if r.curve_id in support or r.curve_id in newly_negative
        ]

    if any(c < 0 for c in coeffs):
        raise CatalogInsufficient(
            "catalog insufficient or divisor not pseudo-effective"
        )
    pairs = [(cid, c) for cid, c in zip(support, coeffs) if c > 0]
    positive_ids = tuple(cid for cid, _ in pairs)
    decomposition = ZariskiDecomposition(
        original=d,
        positive=positive,
        negative=tuple(pairs),
        support_matrix=s.gram_of(positive_ids),
    )
    _verify(s, decomposition)
    return decomposition


def _verify(s: SurfaceModel, z: ZariskiDecomposition) -> None:
    """Re-check the defining properties of a decomposition.  A failure is a
    bug, so it raises InternalInconsistency, which ``python -O`` keeps."""
    if z.positive + s.class_of(z.negative) != z.original:
        problem = "P + N != D"
    elif any(z.positive.dot(s.curve(cid).divisor_class) != 0 for cid, _ in z.negative):
        problem = "P is not orthogonal to the support of N"
    elif not nef_on_catalog(s, z.positive):
        problem = "P is negative on a catalog curve"
    elif not is_negative_definite(z.support_matrix):
        problem = "the support of N is not negative definite"
    else:
        return
    raise InternalInconsistency(f"Zariski decomposition: {problem}")


def null_locus(s: SurfaceModel, z: ZariskiDecomposition) -> CurveSet:
    """All catalog curves of P-degree zero (contains the support of N)."""
    ids = tuple(
        r.curve_id for r in s.catalog if z.positive.dot(r.divisor_class) == 0
    )
    return CurveSet(ids)


def nef_on_catalog(s: SurfaceModel, d: DivisorClass) -> bool:
    return all(d.dot(r.divisor_class) >= 0 for r in s.catalog)


def big_test(s: SurfaceModel, d: DivisorClass) -> bool:
    """Bigness certified through the positive part: P^2 > 0."""
    z = zariski_decompose(s, d)
    return z.positive_square > 0


def ample_on_catalog(s: SurfaceModel, d: DivisorClass) -> bool:
    """Nakai-Moishezon relative to the catalog: d^2 > 0, d.c > 0 for all c."""
    if d.square <= 0:
        return False
    return all(d.dot(r.divisor_class) > 0 for r in s.catalog)
