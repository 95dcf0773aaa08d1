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

    d is paired with the catalog once, and every round runs in integers on
    catalog positions: the support's coefficients are y_i / (y_den * d.den),
    solved from d's degree numerators, and N's degrees are sum y_i * (C_i.C)
    over the same denominator, summed from the nonzero entries of the
    support's table rows.  The first round's support is every curve with
    d.C < 0, and the support only grows, so a curve outside it can turn
    negative only where N meets it positively: each round tests only the
    positions that the support's rows touch.  Fractions are built once, for
    N's final coefficients, and P is the integer-weighted sparse sum
    y_den * d - sum y_i C_i over y_den * den.
    """
    d_degrees, den = s.degrees(d), d.den
    support: list[int] = []
    # N = (sum y_i C_i) / (y_den * den); the first round's N is 0
    ys, y_den = [], 1
    newly_negative = [k for k, x in enumerate(d_degrees) if x < 0]
    while newly_negative:
        support = sorted(support + newly_negative)
        if len(support) >= s.rank:
            raise CatalogInsufficient(
                "catalog insufficient or divisor not pseudo-effective"
            )
        matrix = s.gram_of([s.catalog[k].curve_id for k in support])
        if not is_negative_definite(matrix):
            raise CatalogInsufficient(
                "catalog insufficient or divisor not pseudo-effective"
            )
        ys, y_den = _solve_integers(matrix, [d_degrees[k] for k in support])
        rows = [s.nonzeros(k) for k in support]
        n_degrees, _ = weighted_sum(zip(rows, ys), len(d_degrees))
        # y_den * den * (P.C) = y_den * (d.C numerator) - (N.C numerator)
        current = set(support)
        touched = {k for positions, _ in rows for k in positions} - current
        newly_negative = [k for k in touched if y_den * d_degrees[k] < n_degrees[k]]

    if any(y < 0 for y in ys):
        raise CatalogInsufficient(
            "catalog insufficient or divisor not pseudo-effective"
        )
    terms = [(k, y) for k, y in zip(support, ys) if y > 0]
    negative = tuple((s.catalog[k].curve_id, Q(y, y_den * den)) for k, y in terms)
    positive, _ = weighted_sum(
        [((range(s.rank), d.nums), y_den)] + [(s.catalog[k].sparse, -y) for k, y in terms], s.rank
    )
    positive = _reduced(s.lattice, tuple(positive), y_den * den)
    max_coefficient = Q(max(y for _, y in terms), y_den * den) if terms else _ZERO
    decomposition = ZariskiDecomposition(
        d, positive, negative, positive.square, max_coefficient, null=()
    )
    return decomposition._replace(null=_verify(s, decomposition))


def combination_degrees(s: SurfaceModel, components) -> tuple[list[int], int]:
    """The numerators, over their common denominator, of (sum c_i C_i).C
    for every catalog curve C, summed from the nonzero entries of the table
    rows of the C_i."""
    return weighted_sum(
        ((s.nonzeros(s.position(cid)), c) for cid, c in components), len(s.catalog)
    )


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
