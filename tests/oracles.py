"""Independent reference computations used to pin expected test values.

Deliberately separate from the package internals: determinants are expanded
by cofactors, linear systems are solved with Cramer's rule or, where that
is too slow, by Gauss-Jordan reduction over Fractions with a largest-entry
pivot, and discrepancy systems for exceptional chains are assembled from
scratch.  Slow is fine here; these exist so the main implementation is
checked against a different algorithm, not against itself.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

Q = Fraction


def cofactor_det(rows):
    # entries stay in their own arithmetic (ints stay ints)
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def cramer_solve(rows, rhs) -> tuple[Q, ...]:
    n = len(rows)
    det = cofactor_det(rows)
    if det == 0:
        raise ZeroDivisionError("singular system")
    out = []
    for j in range(n):
        col_swapped = [
            [rhs[i] if k == j else rows[i][k] for k in range(n)] for i in range(n)
        ]
        out.append(Q(cofactor_det(col_swapped)) / Q(det))
    return tuple(out)


def row_reduce_solve(rows, rhs) -> tuple[Q, ...]:
    """The solution of rows @ x = rhs by Gauss-Jordan reduction of the
    augmented matrix over Fractions, O(n^3).  The pivot of each column is
    its entry of largest absolute value at or below the diagonal (the first
    such row on a tie), unlike the package's fraction-free elimination,
    which takes the first nonzero row."""
    n = len(rows)
    augmented = [[Q(x) for x in row] + [Q(b)] for row, b in zip(rows, rhs)]
    for k in range(n):
        best = max(range(k, n), key=lambda i: (abs(augmented[i][k]), -i))
        if augmented[best][k] == 0:
            raise ZeroDivisionError("singular system")
        augmented[k], augmented[best] = augmented[best], augmented[k]
        pivot_row = [x / augmented[k][k] for x in augmented[k]]
        augmented[k] = pivot_row
        for i in range(n):
            factor = augmented[i][k]
            if i != k and factor:
                augmented[i] = [x - factor * y for x, y in zip(augmented[i], pivot_row)]
    return tuple(row[n] for row in augmented)


def chain_matrix(weights) -> list[list[int]]:
    """Intersection matrix of a chain of smooth rational curves.

    ``weights[i] = w`` means the i-th curve has self-intersection -w;
    consecutive curves meet once, all other pairs are disjoint.
    """
    n = len(weights)
    rows = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        rows[i][i] = -w
        if i + 1 < n:
            rows[i][i + 1] = 1
            rows[i + 1][i] = 1
    return rows


def chain_discrepancies(weights) -> tuple[Q, ...]:
    """Brute-force discrepancies of a contracted rational chain.

    Solves sum_j a_j (E_j . E_i) = K . E_i with K . E_i = w_i - 2 (a smooth
    rational curve of self-intersection -w_i), via Cramer's rule.
    """
    rows = chain_matrix(weights)
    rhs = [w - 2 for w in weights]
    return cramer_solve(rows, rhs)


def adjunction_genus(self_intersection: Q, k_degree: Q) -> Q:
    """p_a from the adjunction identity 2p_a - 2 = C^2 + K.C."""
    return (Q(self_intersection) + Q(k_degree)) / 2 + 1


def grid_vectors(n: int, radius: int = 2):
    """All nonzero integer vectors with entries in [-radius, radius]."""
    for combo in itertools.product(range(-radius, radius + 1), repeat=n):
        if any(combo):
            yield combo


def dense_gram(kind: str, e: int, blowups: int) -> list[list[Q]]:
    """The full Gram matrix of a base surface blown up ``blowups`` times.

    The base block is written out from the surface conventions (a line on
    P2 squares to 1; on a Hirzebruch or ruled base c0^2 = -e, c0.f = 1,
    f^2 = 0), and each exceptional class is a -1 on the diagonal.
    """
    block = [[Q(1)]] if kind == "P2" else [[Q(-e), Q(1)], [Q(1), Q(0)]]
    n = len(block) + blowups
    rows = [[Q(0)] * n for _ in range(n)]
    for i, row in enumerate(block):
        rows[i][: len(row)] = row
    for i in range(len(block), n):
        rows[i][i] = Q(-1)
    return rows


def dense_coords(rank: int, sparse) -> tuple[int, ...]:
    """The class with the nonzeros ``sparse``, (positions, values), written
    out at each of its ``rank`` coordinates."""
    coords = [0] * rank
    for k, v in zip(*sparse):
        coords[k] = v
    return tuple(coords)


def dense_pairing(rows, a, b) -> Q:
    """a^T G b summed over every entry of the Gram matrix.  Entries stay in
    their own arithmetic (ints stay ints), and a term with a zero
    coordinate or a zero Gram entry adds nothing, so it is skipped."""
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    return Q(sum(
        x * rows[i][j] * y for i, x in enumerate(a) if x for j, y in b_terms if rows[i][j]
    ))


def curve_gram(rows, curves) -> list[list[int]]:
    """The dense pairing of every two of the given integral classes, as
    ints, so that determinants of its blocks stay in ints."""
    gram = [[dense_pairing(rows, a, b) for b in curves] for a in curves]
    if any(x.denominator != 1 for row in gram for x in row):
        raise ValueError("curve classes must be integral")
    return [[x.numerator for x in row] for row in gram]


def ep_divisor(rows, canonical, exceptional, boundary) -> tuple[Q, ...]:
    """The comparison divisor of a contraction, one coefficient per
    exceptional class: -a_i plus c * mu_i for each boundary curve C of
    coefficient c, where M a = (K . E_i) gives the discrepancies of K and
    M mu = -(C . E_i) gives the pullback f^*C = C + sum mu_i E_i.

    ``rows`` is the dense Gram matrix, ``canonical`` K's coordinates,
    ``exceptional`` the contracted classes and ``boundary`` (class,
    coefficient) pairs; every system is solved by Cramer's rule.
    """
    gram = curve_gram(rows, exceptional)
    solved = cramer_solve(gram, [dense_pairing(rows, canonical, e) for e in exceptional])
    coeffs = [-a for a in solved]
    for curve, c in boundary:
        mu = cramer_solve(gram, [-dense_pairing(rows, curve, e) for e in exceptional])
        coeffs = [x + Q(c) * m for x, m in zip(coeffs, mu)]
    return tuple(coeffs)


def castelnuovo_image(rows, canonical, exceptional, curve, smooth) -> tuple[Q, Q, bool]:
    """The image of a curve of class ``curve`` under the contraction of a
    (-1)-curve of class ``exceptional``, as (C'^2, p_a(C'), smooth).

    With m = C.E, the pullback of the image is C' = C + mE, and the pullback
    of the canonical class downstairs is K' = K - E; p_a comes from
    adjunction with these.  The image passes through the point E contracts
    to with multiplicity m, so it is smooth only if C is and m < 2.
    """
    m = dense_pairing(rows, curve, exceptional)
    image = class_sum(curve, class_scaled(exceptional, m))
    k_image = class_difference(canonical, exceptional)
    square = dense_pairing(rows, image, image)
    return square, adjunction_genus(square, dense_pairing(rows, k_image, image)), smooth and m < 2


def is_negative_definite_by_minors(rows) -> bool:
    """Sylvester's criterion with every leading minor expanded by cofactors:
    the k-th leading minor is nonzero with sign (-1)^k."""
    for k in range(1, len(rows) + 1):
        minor = cofactor_det([row[:k] for row in rows[:k]])
        if minor == 0 or (minor > 0) != (k % 2 == 0):
            return False
    return True


def solve_from_last(rows, rhs) -> tuple[Q, ...] | None:
    """The solution of rows @ x = rhs for a negative definite matrix, or
    None if the matrix is not negative definite.

    Gaussian elimination over Fractions from the last row up, with no row
    swap, on rows kept as {column: entry} dicts.  Pivot k is the ratio of
    the trailing principal minors of sizes n - k and n - k - 1, so by
    Sylvester's criterion the matrix is negative definite exactly when
    every pivot is negative.  O(n^3) at worst, unlike the cofactor
    expansion; on a forest of curves whose leaves come last, as on a
    ``line_star`` catalog, nothing fills in.  The package's elimination
    runs forward, fraction-free, with a first-nonzero pivot.
    """
    n = len(rows)
    reduced = [{j: Q(x) for j, x in enumerate(row) if x} for row in rows]
    b = [Q(x) for x in rhs]
    for k in reversed(range(n)):
        pivot = reduced[k].get(k, 0)
        if pivot >= 0:
            return None
        for i in range(k):
            if k in reduced[i]:
                factor = reduced[i].pop(k) / pivot
                for j, y in reduced[k].items():
                    if j != k:
                        reduced[i][j] = reduced[i].get(j, 0) - factor * y
                b[i] -= factor * b[k]
    x: list[Q] = []
    for k in range(n):
        tail = sum(y * x[j] for j, y in reduced[k].items() if j != k)
        x.append((b[k] - tail) / reduced[k][k])
    return tuple(x)


# the largest block that oracle_zariski expands by cofactors; the cost of an
# expansion grows with the factorial of the block's size
COFACTOR_SIZE = 8


def oracle_zariski(rows, curves, meets, d):
    """The Zariski decomposition of d relative to a list of curve classes,
    by the textbook support-growing loop over a dense Gram matrix.

    ``curves`` and ``d`` are coordinate tuples and ``meets`` is
    ``curve_gram(rows, curves)``.  Returns (P's coordinates, N as (curve
    index, coefficient) pairs with a positive coefficient, in index order),
    or None where the loop gives up: the support reaches the rank, the
    rounds exceed rank + 1, the support is not negative definite, or a
    final coefficient is negative.  A support of at most ``COFACTOR_SIZE``
    curves is tested and solved by cofactors and Cramer's rule, a larger
    one by ``solve_from_last``.
    """
    n = len(rows)
    d_degrees = [dense_pairing(rows, d, b) for b in curves]
    # solved with the degrees scaled to integers, so determinants stay ints
    scale = math.lcm(*(x.denominator for x in d_degrees))
    scaled = [(x * scale).numerator for x in d_degrees]
    support: list[int] = []
    rounds = 0
    while True:
        rounds += 1
        if len(support) >= n or rounds > n + 1:
            return None
        block = [[meets[i][j] for j in support] for i in support]
        rhs = [scaled[i] for i in support]
        if len(support) > COFACTOR_SIZE:
            solved = solve_from_last(block, rhs)
            if solved is None:
                return None
        elif support and not is_negative_definite_by_minors(block):
            return None
        else:
            solved = cramer_solve(block, rhs) if support else ()
        coeffs = [c / scale for c in solved]
        newly = [
            k
            for k in range(len(curves))
            if k not in support
            and d_degrees[k] - sum(c * meets[i][k] for i, c in zip(support, coeffs) if meets[i][k])
            < 0
        ]
        if not newly:
            break
        support = sorted(support + newly)
    if any(c < 0 for c in coeffs):
        return None
    positive = tuple(Q(x) for x in d)
    for i, c in zip(support, coeffs):
        positive = class_difference(positive, class_scaled(curves[i], c))
    return positive, [(i, c) for i, c in zip(support, coeffs) if c > 0]


def class_sum(a, b) -> tuple[Q, ...]:
    """Class arithmetic done coordinate by coordinate over Fractions."""
    return tuple(Q(x) + Q(y) for x, y in zip(a, b))


def class_difference(a, b) -> tuple[Q, ...]:
    return tuple(Q(x) - Q(y) for x, y in zip(a, b))


def class_negation(a) -> tuple[Q, ...]:
    return tuple(-Q(x) for x in a)


def class_scaled(a, factor) -> tuple[Q, ...]:
    return tuple(Q(factor) * Q(x) for x in a)


def class_is_zero(a) -> bool:
    return all(Q(x) == 0 for x in a)


def quadratic_form(rows, vec) -> Q:
    total = Q(0)
    for i, vi in enumerate(vec):
        if not vi:
            continue
        for j, vj in enumerate(vec):
            if vj:
                total += Q(vi) * Q(rows[i][j]) * Q(vj)
    return total


# Values frozen from hand computation with the oracles above, before the
# main implementation was written.

# Chain [-2, -3]: M = [[-2,1],[1,-3]], rhs = (0, 1)  =>  a = (-1/5, -2/5).
HJ_CHAIN_2_3 = (Q(-1, 5), Q(-2, 5))

# Single (-3) rational curve: -3a = 1  =>  a = -1/3.
SINGLE_MINUS_3 = Q(-1, 3)

# F3: -K = 2C0 + 5f, -K.C0 = -1, C0^2 = -3  =>  N = (1/3) C0, P^2 = 25/3.
F3_NEGATIVE_COEFF = Q(1, 3)
F3_POSITIVE_SQUARE = Q(25, 3)

# F2: -K.C0 = 0, N = 0, P = -K, P^2 = 8.
F2_POSITIVE_SQUARE = Q(8)

# Star: (-5)-curve meeting five disjoint (-2)-curves once each, plus one
# (-1)-curve meeting the (-5): Fujita support solved by Cramer gives
# coefficients 4/3 (center), 2/3 (each leg), 1/3 (the (-1)); P^2 = 5/3.
STAR_CENTER_COEFF = Q(4, 3)
STAR_LEG_COEFF = Q(2, 3)
STAR_TAIL_COEFF = Q(1, 3)
STAR_POSITIVE_SQUARE = Q(5, 3)

# Two meeting negative curves: a (-6) rational curve (line through 7 points)
# and a (-3) rational curve (exceptional with 2 extra points) meeting once:
# [[-6,1],[1,-3]] c = (-4,-1)  =>  c = (13/17, 10/17); redundant shared
# point of multiplicity 23/17; P^2 = 62/17.
PAIR_COEFFS = (Q(13, 17), Q(10, 17))
PAIR_SHARED_MULT = Q(23, 17)
PAIR_POSITIVE_SQUARE = Q(62, 17)

# Witness data (direct construction): L solves M x = (-1,...,-1).
F2_L_COEFF = Q(1, 2)          # [[-2]] x = [-1]
F3_L_COEFF = Q(1, 3)          # [[-3]] x = [-1]
PAIR_L_COEFFS = (Q(4, 17), Q(7, 17))   # [[-6,1],[1,-3]] x = (-1,-1)
PAIR_EPSILON = Q(2, 7)        # min((1-13/17)/(2*7/17), 1/2) = 2/7

# Boundary discrepancies on F2 (C0 is the (-2)-curve, the fiber meets it
# once): -2a = 0 + q  =>  a = -q/2.
F2_BOUNDARY_HALF = Q(-1, 4)
F2_BOUNDARY_ONE = Q(-1, 2)

# Example-of-nine-points resolution: each exceptional meets three boundary
# lines of coefficient 1/10: a(-1) = K.E + 3/10 = -1 + 3/10  =>  a = 7/10.
NINE_POINT_DISCREPANCY = Q(7, 10)
