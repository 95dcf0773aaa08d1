"""Exact linear algebra: class arithmetic, pairing, definiteness, solving."""
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from delpezzo import lattice
from delpezzo.errors import DegenerateConfiguration, IncompatibleSurfaces
from delpezzo.lattice import (
    DivisorClass,
    IntersectionMatrix,
    PicardLattice,
    _solve_integers,
    dual_entries,
    format_rational,
    is_negative_definite,
    rational,
    solve_linear,
)
from delpezzo.surface import BlowUpRecord, blow_up, build_base

P2 = PicardLattice(("h",), ((Q(1),),))
BL1 = PicardLattice(("h", "e1"), ((Q(1),),))


def test_rational_parsing_round_trip():
    assert rational("3") == 3
    assert rational("-7/2") == Q(-7, 2)
    assert rational(Q(5, 10)) == Q(1, 2)
    assert format_rational(Q(4, 2)) == "2"
    assert format_rational(Q(-1, 3)) == "-1/3"


def test_intersect_on_plane():
    h = P2.basis_class("h")
    assert h.scale(3).dot(h) == 3
    assert h.dot(P2.zero()) == 0


def test_intersect_blow_up():
    h = BL1.basis_class("h")
    e = BL1.basis_class("e1")
    assert (h.scale(3) - e).dot(e) == 1
    assert e.dot(e) == -1
    assert h.dot(e) == 0


@pytest.mark.parametrize(
    "labels,gram",
    [
        (("c0", "f"), ((Q(0), Q(1)), (Q(2), Q(0)))),   # asymmetric block
        (("h",), ((Q(1), Q(0)), (Q(0), Q(1)))),        # block larger than basis
        (("c0", "f"), ((Q(0), Q(1)), (Q(1),))),        # ragged block
    ],
)
def test_malformed_base_block_rejected(labels, gram):
    with pytest.raises(ValueError, match="gram matrix"):
        PicardLattice(labels, gram)


def test_extension_appends_a_minus_one_axis():
    s = build_base("hirzebruch", e=3)
    lattice = blow_up(blow_up(s, BlowUpRecord("p1")), BlowUpRecord("p2")).lattice
    assert lattice.labels == ("c0", "f", "e1", "e2")
    assert len(lattice.gram) == 2
    e1, e2 = lattice.basis_class("e1"), lattice.basis_class("e2")
    assert (e1.square, e2.square, e1.dot(e2)) == (-1, -1, 0)
    with pytest.raises(ValueError, match="already in use"):
        PicardLattice(lattice.labels + ("e1",), lattice.gram)


def test_duplicate_basis_labels_rejected():
    with pytest.raises(ValueError, match="^basis label 'h' already in use$"):
        PicardLattice(("h", "h"), ((1,),))


@st.composite
def classes_on_a_blown_up_base(draw):
    kind = draw(st.sampled_from(("P2", "hirzebruch", "ruled")))
    e = 0 if kind == "P2" else draw(st.integers(min_value=0, max_value=4))
    genus = draw(st.integers(min_value=0, max_value=2)) if kind == "ruled" else 0
    blowups = draw(st.integers(min_value=0, max_value=8))
    base = build_base(kind, e=e, genus=genus).lattice
    lattice = PicardLattice(base.labels + tuple(f"e{i + 1}" for i in range(blowups)), base.gram)
    vector = st.lists(small_rationals, min_size=lattice.rank, max_size=lattice.rank)
    a, b = draw(vector), draw(vector)
    return oracles.dense_gram(kind, e, blowups), lattice, a, b


@given(classes_on_a_blown_up_base())
def test_pairing_agrees_with_dense_gram_oracle(case):
    rows, lattice, a, b = case
    d1, d2 = DivisorClass(lattice, tuple(a)), DivisorClass(lattice, tuple(b))
    assert d1.dot(d2) == oracles.dense_pairing(rows, a, b)
    assert d1.square == oracles.dense_pairing(rows, a, a)


@given(classes_on_a_blown_up_base())
def test_dual_vector_pairs_like_dense_gram_oracle(case):
    rows, lattice, a, b = case
    # integral classes, read as the catalog stores them: ascending nonzeros
    x = [v.numerator for v in a]
    y = [v.numerator for v in b]
    positions = [k for k, v in enumerate(x) if v]
    entries = list(dual_entries(lattice.gram, positions, [x[k] for k in positions]))
    axes = [k for k, _ in entries]
    # each axis once, in ascending order, so a dense layout of the entries
    # writes every one
    assert axes == sorted(set(axes)) and all(0 <= k < lattice.rank for k in axes)
    assert sum(g * y[k] for k, g in entries) == oracles.dense_pairing(rows, x, y)


def test_incompatible_bases_rejected():
    with pytest.raises(IncompatibleSurfaces, match="incompatible surfaces"):
        P2.basis_class("h").dot(BL1.basis_class("h"))


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@given(
    a=small_rationals,
    b=small_rationals,
    vecs=st.lists(
        st.tuples(small_rationals, small_rationals), min_size=3, max_size=3
    ),
)
def test_pairing_is_bilinear(a, b, vecs):
    d1, d2, d3 = (DivisorClass(BL1, coords) for coords in vecs)
    left = (d1.scale(a) + d2.scale(b)).dot(d3)
    right = a * d1.dot(d3) + b * d2.dot(d3)
    assert left == right
    assert d1.dot(d2) == d2.dot(d1)


@given(classes_on_a_blown_up_base(), small_rationals)
def test_class_arithmetic_agrees_with_elementwise_oracle(case, factor):
    _, lattice, a, b = case
    d1, d2 = DivisorClass(lattice, tuple(a)), DivisorClass(lattice, tuple(b))
    assert d1.coords == tuple(a)
    assert all(type(x) is Q for x in d1.coords)
    assert (d1 + d2).coords == oracles.class_sum(a, b)
    assert (d1 - d2).coords == oracles.class_difference(a, b)
    assert (-d1).coords == oracles.class_negation(a)
    assert d1.scale(factor).coords == oracles.class_scaled(a, factor)
    assert d1.is_zero() == oracles.class_is_zero(a)
    assert d1.scale(0).is_zero() and (d1 - d1).is_zero()


nonzero_rationals = small_rationals.filter(bool)


@given(classes_on_a_blown_up_base(), nonzero_rationals)
def test_class_arithmetic_keeps_one_canonical_form(case, q):
    _, lattice, a, b = case
    d1, d2 = DivisorClass(lattice, tuple(a)), DivisorClass(lattice, tuple(b))
    assert d1.den > 0 and math.gcd(d1.den, *d1.nums) == 1
    for same in ((d1 + d2) - d2, d1.scale(q).scale(1 / q), DivisorClass(lattice, d1.coords)):
        assert same == d1
        assert hash(same) == hash(d1)


# entries that `rational` refuses, each with its own exception there: a
# float, a bool, a zero denominator and a string that is no number
NOT_RATIONAL = (1.5, True, "1/0", "x")


def test_non_integral_base_block_rejected():
    with pytest.raises(ValueError, match="gram matrix"):
        PicardLattice(("c0", "f"), ((Q(-1), Q(1, 2)), (Q(1, 2), Q(0))))
    for x in NOT_RATIONAL:
        with pytest.raises(ValueError, match="^gram matrix entries must be integers$"):
            PicardLattice(("c0", "f"), ((x, 1), (1, 0)))


def test_intersection_matrix_entries_are_integers():
    with pytest.raises(ValueError, match="intersection matrix entries must be integers"):
        IntersectionMatrix(("a",), ((Q(1, 2),),))
    with pytest.raises(ValueError, match="intersection matrix entries must be integers"):
        IntersectionMatrix(("a", "b"), ((-2, Q(1, 3)), (Q(1, 3), -2)))
    for x in NOT_RATIONAL:
        with pytest.raises(ValueError, match="^intersection matrix entries must be integers$"):
            IntersectionMatrix(("a",), ((x,),))
    # an int-valued rational is stored as its int
    matrix = IntersectionMatrix(("a", "b"), ((Q(-2), Q(1)), (Q(1), Q(-2))))
    assert matrix == IntersectionMatrix(("a", "b"), ((-2, 1), (1, -2)))
    assert all(type(x) is int for row in matrix.entries for x in row)


def _matrix(entries):
    ids = tuple(f"c{i}" for i in range(len(entries)))
    rows = tuple(tuple(Q(x) for x in row) for row in entries)
    return IntersectionMatrix(ids, rows)


@pytest.mark.parametrize(
    "entries,expected",
    [
        ([[-2]], True),
        ([[0]], False),
        ([[-2, 1], [1, -2]], True),   # minors -2, 3
        ([[-1, 1], [1, -1]], False),  # singular
        ([[-2, 3], [3, -2]], False),
        ([[2]], False),
    ],
)
def test_negative_definite_cases(entries, expected):
    assert is_negative_definite(_matrix(entries)) == expected


def test_negative_definite_empty_is_vacuous():
    assert is_negative_definite(_matrix([]))


@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=200)
def test_definiteness_agrees_with_grid_falsifier(raw):
    # symmetrize
    sym = [[raw[i][j] + raw[j][i] for j in range(3)] for i in range(3)]
    matrix = _matrix(sym)
    verdict = is_negative_definite(matrix)
    witnesses = [
        v for v in oracles.grid_vectors(3) if oracles.quadratic_form(sym, v) >= 0
    ]
    if verdict:
        assert not witnesses
    if witnesses:
        # the grid can only falsify, never prove
        assert not verdict


@pytest.mark.parametrize(
    "entries,rhs,expected",
    [
        ([[-2]], [-1], (Q(1, 2),)),
        ([[-3]], [1], (Q(-1, 3),)),
        ([[-1, 0], [0, -1]], [2, -5], (Q(-2), Q(5))),
    ],
)
def test_solve_linear_cases(entries, rhs, expected):
    assert solve_linear(_matrix(entries), [Q(x) for x in rhs]) == expected


def test_solve_singular_raises():
    with pytest.raises(DegenerateConfiguration, match="degenerate configuration"):
        solve_linear(_matrix([[-1, 1], [1, -1]]), [Q(1), Q(1)])


@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    ),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
)
@settings(max_examples=150)
def test_solve_verified_by_back_substitution(raw, rhs):
    # diagonally dominant symmetric matrix: always invertible
    sym = [[Q(raw[i][j] + raw[j][i]) for j in range(4)] for i in range(4)]
    for i in range(4):
        sym[i][i] = Q(-20) - abs(sym[i][i])
    matrix = _matrix(sym)
    solution = solve_linear(matrix, [Q(x) for x in rhs])
    for i in range(4):
        assert sum(sym[i][j] * solution[j] for j in range(4)) == rhs[i]
    # cross-check against the independent Cramer-rule oracle
    assert solution == oracles.cramer_solve(sym, [Q(x) for x in rhs])


# ---------------------------------------------------------------------------
# the elimination kernel against the independent cofactor and Cramer oracles

small_ints = st.integers(min_value=-4, max_value=4).map(Q)


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices of size 0-6 with integer entries, as intersection
    matrices have; some are shifted to be negative definite, some repeat a
    row to be singular, so every branch of the kernel is reached."""
    n = draw(st.integers(min_value=0, max_value=6))
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(small_ints)
    shape = draw(st.sampled_from(["plain", "dominant", "repeated"]))
    if shape == "dominant":
        for i in range(n):
            rows[i][i] = -1 - sum(abs(x) for x in rows[i])
    elif shape == "repeated" and n >= 2:
        for j in range(n - 1):
            rows[n - 1][j] = rows[j][n - 1] = rows[0][j]
        rows[n - 1][n - 1] = rows[0][0]
    return rows


def _sylvester(rows):
    return all(
        (-1) ** k * oracles.cofactor_det([row[:k] for row in rows[:k]]) > 0
        for k in range(1, len(rows) + 1)
    )


@given(symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_definiteness_agrees_with_cofactor_sylvester(rows):
    assert is_negative_definite(_matrix(rows)) == _sylvester(rows)


@given(symmetric_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_solve_agrees_with_cramer(rows, data):
    rhs = data.draw(st.lists(small_rationals, min_size=len(rows), max_size=len(rows)))
    matrix = _matrix(rows)
    if oracles.cofactor_det(rows) == 0:
        with pytest.raises(DegenerateConfiguration, match="degenerate configuration"):
            solve_linear(matrix, rhs)
    else:
        assert solve_linear(matrix, rhs) == oracles.cramer_solve(rows, rhs)


@given(symmetric_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_integer_solve_agrees_with_cramer(rows, data):
    # the path the Zariski rounds take: int entries and an int right-hand
    # side, solved as numerators over one positive denominator whatever the
    # sign of the determinant
    ints = [[int(x) for x in row] for row in rows]
    rhs = data.draw(st.lists(st.integers(-6, 6), min_size=len(rows), max_size=len(rows)))
    matrix = IntersectionMatrix(tuple(f"c{i}" for i in range(len(ints))), ints)
    if oracles.cofactor_det(ints) == 0:
        with pytest.raises(DegenerateConfiguration, match="degenerate configuration"):
            _solve_integers(matrix, rhs)
    else:
        nums, den = _solve_integers(matrix, rhs)
        assert den > 0
        assert tuple(Q(v, den) for v in nums) == oracles.cramer_solve(ints, rhs)


@given(symmetric_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_row_reduction_oracle_agrees_with_cramer(rows, data):
    # the O(n^3) oracle that the large model sets are solved with, checked
    # against Cramer's rule where cofactor expansion is still cheap
    rhs = data.draw(st.lists(small_rationals, min_size=len(rows), max_size=len(rows)))
    if oracles.cofactor_det(rows) == 0:
        with pytest.raises(ZeroDivisionError):
            oracles.row_reduce_solve(rows, rhs)
    else:
        assert oracles.row_reduce_solve(rows, rhs) == oracles.cramer_solve(rows, rhs)


@given(symmetric_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_backward_elimination_oracle_agrees_with_cofactors(rows, data):
    # the O(n^3) oracle that large Zariski supports are tested and solved
    # with, checked against the cofactor minors and Cramer's rule
    rhs = data.draw(st.lists(small_rationals, min_size=len(rows), max_size=len(rows)))
    solved = oracles.solve_from_last(rows, rhs)
    if oracles.is_negative_definite_by_minors(rows):
        assert solved == oracles.cramer_solve(rows, rhs)
    else:
        assert solved is None


def test_swap_path_is_not_definite_but_solves():
    matrix = _matrix([[0, 1], [1, 0]])
    assert not is_negative_definite(matrix)
    assert solve_linear(matrix, [Q(2), Q(-3, 2)]) == (Q(-3, 2), Q(2))


def test_one_elimination_serves_every_solve(monkeypatch):
    entries = [[-2, 1, 0], [1, -3, 1], [0, 1, -2]]
    first, second = [Q(1), Q(0), Q(-1, 3)], [Q(5), Q(2, 7), Q(0)]
    calls = []
    original = lattice._bareiss
    monkeypatch.setattr(lattice, "_bareiss", lambda e: calls.append(e) or original(e))
    matrix = _matrix(entries)
    assert is_negative_definite(matrix)
    x1 = solve_linear(matrix, first)
    x2 = solve_linear(matrix, second)
    assert solve_linear(matrix, first) == x1
    assert len(calls) == 1
    # the cached elimination is not mutated by a solve
    assert x1 == solve_linear(_matrix(entries), first)
    assert x2 == solve_linear(_matrix(entries), second)
    assert x2 == oracles.cramer_solve(entries, second)
