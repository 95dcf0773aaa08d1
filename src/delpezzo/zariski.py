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

from collections import namedtuple

from .errors import CatalogInsufficient, InternalInconsistency
from .lattice import (
    DivisorClass,
    Q,
    _reduced,
    _solve_integers,
    is_negative_definite,
    weighted_sum,
)
from .surface import SurfaceModel

CATALOG_CAVEAT = "relative to declared catalog"
_ZERO = Q(0)


class ZariskiDecomposition(
    namedtuple(
        "ZariskiDecomposition", "original positive negative positive_square max_coefficient null"
    )
):
    """D = P + N: ``positive`` is P, ``negative`` holds N as (curve id,
    coefficient) pairs, ``positive_square`` is P^2, ``max_coefficient`` is
    the largest N-coefficient (0 when N = 0), and ``null`` is Null(P), the
    catalog-ordered ids of the curves of P-degree zero (it contains the
    support of N)."""

    __slots__ = ()


def zariski_decompose(s: SurfaceModel, d: DivisorClass) -> ZariskiDecomposition:
    """Split d = P + N with P nonnegative on the catalog and orthogonal to
    the negative-definite support of N.

    d is paired with the catalog once, and every round runs in integers:
    the support's coefficients are y_i / (y_den * d.den), solved from d's
    degree numerators, and N's degrees are sum y_i * (C_i.C) over the same
    denominator, summed from the table rows of the support.  Fractions are
    built once, for N's final coefficients, and P is the integer-weighted
    sum y_den * d - sum y_i C_i over y_den * den.
    """
    d_degrees, den = s.degrees(d), d.den
    support: list[str] = []
    # N = (sum y_i C_i) / (y_den * den); the first round's support is empty
    ys, y_den, n_degrees = [], 1, [0] * len(d_degrees)
    while True:
        if len(support) >= s.rank:
            raise CatalogInsufficient(
                "catalog insufficient or divisor not pseudo-effective"
            )
        if support:
            matrix = s.gram_of(support)
            if not is_negative_definite(matrix):
                raise CatalogInsufficient(
                    "catalog insufficient or divisor not pseudo-effective"
                )
            ys, y_den = _solve_integers(
                matrix, [d_degrees[s.position(cid)] for cid in support]
            )
            n_degrees, _ = combination_degrees(s, zip(support, ys))
        # y_den * den * (P.C) = y_den * (d.C numerator) - (N.C numerator)
        current = set(support)
        newly_negative = {
            r.curve_id
            for r, x, y in zip(s.catalog, d_degrees, n_degrees)
            if y_den * x < y and r.curve_id not in current
        }
        if not newly_negative:
            break
        support = [
            r.curve_id
            for r in s.catalog
            if r.curve_id in current or r.curve_id in newly_negative
        ]

    if any(y < 0 for y in ys):
        raise CatalogInsufficient(
            "catalog insufficient or divisor not pseudo-effective"
        )
    terms = [(cid, y) for cid, y in zip(support, ys) if y > 0]
    negative = tuple((cid, Q(y, y_den * den)) for cid, y in terms)
    positive, _ = weighted_sum(
        [(d.nums, y_den)] + [(s.curve(cid).divisor_class.nums, -y) for cid, y in terms],
        s.rank,
    )
    positive = _reduced(s.lattice, tuple(positive), y_den * den)
    max_coefficient = Q(max(y for _, y in terms), y_den * den) if terms else _ZERO
    decomposition = ZariskiDecomposition(
        d, positive, negative, positive.square, max_coefficient, null=()
    )
    return decomposition._replace(null=_verify(s, decomposition))


def combination_degrees(s: SurfaceModel, components) -> tuple[list[int], int]:
    """The numerators, over their common denominator, of (sum c_i C_i).C
    for every catalog curve C, summed from the table rows of the C_i."""
    return weighted_sum(((s.meets(cid), c) for cid, c in components), len(s.catalog))


def _verify(s: SurfaceModel, z: ZariskiDecomposition) -> tuple[str, ...]:
    """Re-check the defining properties of a decomposition and return
    Null(P).  A failure is a bug, so it raises InternalInconsistency, which
    ``python -O`` keeps.

    P's degrees come from pairing P with each catalog class, never from
    the table rows the decomposition read, so a wrong row is caught here;
    Null(P) is read off that scan, and the scan is kept for later tests of P.
    P + N = D compares two routes: P is the decomposition's integer sum,
    and N's class is built afresh from its Fraction coefficients.  N's
    support is not re-tested for negative definiteness: its Gram matrix is
    a principal submatrix of the last round's, which passed that test.
    """
    degrees = s.degrees(z.positive)
    if z.positive + s.class_of(z.negative) != z.original:
        problem = "P + N != D"
    elif any(degrees[s.position(cid)] != 0 for cid, _ in z.negative):
        problem = "P is not orthogonal to the support of N"
    elif any(v < 0 for v in degrees):
        problem = "P is negative on a catalog curve"
    else:
        return tuple(r.curve_id for r, v in zip(s.catalog, degrees) if v == 0)
    raise InternalInconsistency(f"Zariski decomposition: {problem}")


def nef_on_catalog(s: SurfaceModel, d: DivisorClass) -> bool:
    return all(v >= 0 for v in s.degrees(d))


def ample_on_catalog(s: SurfaceModel, d: DivisorClass) -> bool:
    """Nakai-Moishezon relative to the catalog: d^2 > 0, d.c > 0 for all c."""
    if d.square <= 0:
        return False
    return all(v > 0 for v in s.degrees(d))
