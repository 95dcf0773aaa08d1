"""Contractions, discrepancies, snc decisions, dual graphs."""
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import surfaces
from delpezzo.errors import InvalidSurfaceData, NotContractible
from delpezzo.lattice import IntersectionMatrix, solve_linear
from delpezzo.singular import (
    contract,
    discrepancies_with_boundary,
    dual_graph,
    is_snc_configuration,
)
from delpezzo.surface import BlowUpRecord, blow_up, build_base, declare_curve


def test_minus_two_curve_is_du_val():
    s, chain = surfaces.exceptional_chain((2,))
    data = contract(s, chain)
    assert data.discrepancies == (("e1", Q(0)),)
    assert data.tags == ("DuVal",)


def test_minus_three_curve_discrepancy():
    s, chain = surfaces.exceptional_chain((3,))
    data = contract(s, chain)
    assert data.discrepancies == (("e1", oracles.SINGLE_MINUS_3),)
    assert data.tags == ("KltNonCanonical",)


def test_minus_one_curve_contracts_to_smooth_point():
    s, chain = surfaces.exceptional_chain((1,))
    data = contract(s, chain)
    assert data.discrepancies == (("e1", Q(1)),)
    assert data.tags == ("Smooth",)


def test_elliptic_curve_gives_simple_elliptic():
    s = surfaces.cubic_with_points(10)
    data = contract(s, ("c",))
    assert data.discrepancies == (("c", Q(-1)),)
    assert data.tags == ("SimpleElliptic",)


def test_star_is_worse_than_lc():
    s = surfaces.negative_star()
    curves = ("l", "e1", "e2", "e3", "e4", "e5", "e6")
    data = contract(s, curves)
    assert data.tags == ("WorseThanLc",)
    assert data.verdicts[0].extremal_discrepancy == -oracles.STAR_CENTER_COEFF


def test_hirzebruch_jung_two_three_chain():
    s, chain = surfaces.exceptional_chain((2, 3))
    data = contract(s, chain)
    assert tuple(a for _, a in data.discrepancies) == oracles.HJ_CHAIN_2_3


@pytest.mark.parametrize("n", range(1, 11))
def test_a_n_chains_have_zero_discrepancies(n):
    s, tower = surfaces.exceptional_chain(tuple([2] * n) + (1,))
    chain = tower[:n]  # drop the final (-1)-curve
    data = contract(s, chain)
    assert all(a == 0 for _, a in data.discrepancies)
    assert data.tags == ("DuVal",)
    # independent tridiagonal solve
    assert tuple(a for _, a in data.discrepancies) == oracles.chain_discrepancies(
        [2] * n
    )


def test_disconnected_components_get_separate_verdicts():
    s, chain = surfaces.exceptional_chain((2, 1))
    # e1 is a (-2); add a disjoint (-3) tower elsewhere
    s = blow_up(s, BlowUpRecord("z1"))
    new_e = s.blowups[-1].exceptional_id
    s = blow_up(s, BlowUpRecord("z2", incidences=((new_e, 1),)))
    s = blow_up(s, BlowUpRecord("z3", incidences=((new_e, 1),)))
    data = contract(s, ("e1", new_e))
    assert len(data.components) == 2
    tags = dict(zip((c[0] for c in data.components), data.tags))
    assert tags["e1"] == "DuVal"
    assert tags[new_e] == "KltNonCanonical"


def test_not_negative_definite_rejected():
    s = build_base("P2")
    with pytest.raises(NotContractible, match="not contractible"):
        contract(s, ("h",))


def test_boundary_discrepancy_on_hirzebruch():
    s = surfaces.hirzebruch(2)
    out = discrepancies_with_boundary(s, ("c0",), (("f", Q(1, 2)),))
    assert out == (("c0", oracles.F2_BOUNDARY_HALF),)
    out = discrepancies_with_boundary(s, ("c0",), (("f", Q(1)),))
    assert out == (("c0", oracles.F2_BOUNDARY_ONE),)


def test_boundary_empty_reduces_to_contract():
    s = surfaces.hirzebruch(3)
    assert discrepancies_with_boundary(s, ("c0",), ()) == contract(
        s, ("c0",)
    ).discrepancies


def test_boundary_validation():
    s = surfaces.hirzebruch(2)
    with pytest.raises(InvalidSurfaceData, match="outside"):
        discrepancies_with_boundary(s, ("c0",), (("f", Q(3, 2)),))
    with pytest.raises(InvalidSurfaceData, match="contracted"):
        discrepancies_with_boundary(s, ("c0",), (("c0", Q(1, 2)),))
    with pytest.raises(InvalidSurfaceData, match="'f' listed twice"):
        discrepancies_with_boundary(s, ("c0",), (("f", Q(1, 4)), ("f", Q(1, 4))))


def test_contract_invariant_under_catalog_permutation():
    s = surfaces.negative_star()
    curves = ("l", "e1", "e2", "e3", "e4", "e5", "e6")
    a = contract(s, curves)
    reversed_catalog = surfaces.rebuilt(s, order=s.curve_ids()[::-1])
    b = contract(reversed_catalog, curves)
    assert dict(a.discrepancies) == dict(b.discrepancies)
    assert a.contracted_canonical_square == b.contracted_canonical_square


def test_snc_configurations():
    s, chain = surfaces.exceptional_chain((2, 2))
    assert is_snc_configuration(s, chain)  # a chain meeting once
    # two disjoint (-2)-curves
    s2, _ = surfaces.exceptional_chain((2, 1))
    assert is_snc_configuration(s2, ("e1",))
    # nodal cubic: smooth_flag false
    s3 = build_base("P2")
    s3 = declare_curve(s3, "nodal", (3,), 1, smooth=False)
    assert not is_snc_configuration(s3, ("nodal",))
    # meeting twice is not snc
    s4 = build_base("P2")
    s4 = declare_curve(s4, "conic", (2,), 0)
    s4 = declare_curve(s4, "l", (1,), 0)
    assert not is_snc_configuration(s4, ("conic", "l"))


def test_dual_graph_of_a2_chain():
    s, chain = surfaces.exceptional_chain((2, 2))
    graph = dual_graph(s, chain)
    assert graph.nodes == (("e1", Q(-2), 0), ("e2", Q(-2), 0))
    assert graph.edges == (("e1", "e2", Q(1)),)
    dot = graph.to_dot()
    assert '"e1" [label="e1(-2,0)"];' in dot
    assert '"e1" -- "e2" [label="1"];' in dot


def test_dual_graph_single_elliptic_node():
    s = surfaces.cubic_with_points(10)
    graph = dual_graph(s, ("c",))
    assert graph.nodes == (("c", Q(-1), 1),)
    assert graph.edges == ()


def test_dual_graph_f2_section():
    s = surfaces.hirzebruch(2)
    graph = dual_graph(s, ("c0",))
    assert graph.nodes == (("c0", Q(-2), 0),)


@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=120)
def test_negativity_lemma_property(data):
    # negative definite with non-negative off-diagonals (an intersection
    # matrix shape): solving Mx = y with y <= 0 must give x >= 0
    raw, rhs_raw = data
    n = len(raw)
    sym = [[Q(raw[i][j] + raw[j][i]) for j in range(n)] for i in range(n)]
    for i in range(n):
        sym[i][i] = Q(-1) - sum(sym[i][j] for j in range(n) if j != i)
    ids = tuple(f"c{i}" for i in range(n))
    matrix = IntersectionMatrix(ids, tuple(tuple(row) for row in sym))
    rhs = [Q(-v) for v in rhs_raw]
    solution = solve_linear(matrix, rhs)
    assert all(x >= 0 for x in solution)


def test_negativity_lemma_on_fixture_contractions():
    for name in ("f2", "f3", "pair", "star"):
        s = surfaces.FIXTURES[name]()
        from delpezzo.zariski import zariski_decompose

        z = zariski_decompose(s, s.anticanonical)
        ids = z.null if z.positive_square > 0 else tuple(
            c for c, _ in z.negative
        )
        data = contract(s, ids)
        k_degrees = [
            s.canonical.dot(s.class_of([(c, 1)])) for c in data.exceptional
        ]
        if all(d <= 0 for d in k_degrees):
            assert all(a >= 0 for _, a in data.discrepancies), name
