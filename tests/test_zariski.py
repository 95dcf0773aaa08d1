"""Zariski decomposition and the positivity tests."""
import json
import random
from fractions import Fraction as Q

import pytest

import oracles
import surfaces
from delpezzo import cli
from delpezzo.errors import CatalogInsufficient, InternalInconsistency
from delpezzo.lattice import DivisorClass
from delpezzo.singular import contract
from delpezzo.surface import (
    BlowUpRecord,
    SurfaceModel,
    blow_up,
    build_base,
    declare_curve,
    from_description,
)
from delpezzo.zariski import (
    ample_on_catalog,
    nef_on_catalog,
    zariski_decompose,
)
from test_analysis import line_star
from test_surface import BENCHMARK_LINE_STARS, corpus_head, fixture_models

ALL_FIXTURES = [
    "p2", "f2", "f3", "dp3", "dp8", "cubic10", "star", "pair",
    "elliptic_ruled", "elliptic_ruled_chain", "nine_point_resolution",
]


def test_plane_anticanonical_is_its_own_positive_part():
    s = surfaces.projective_plane()
    z = zariski_decompose(s, s.anticanonical)
    assert z.negative == ()
    assert z.positive == s.anticanonical
    assert z.null == ()


def test_hirzebruch_three_decomposition():
    s = surfaces.hirzebruch(3)
    z = zariski_decompose(s, s.anticanonical)
    assert z.negative == (("c0", oracles.F3_NEGATIVE_COEFF),)
    assert z.positive.dot(s.class_of([("c0", 1)])) == 0
    assert z.positive_square == oracles.F3_POSITIVE_SQUARE
    # direct substitution: (d - c*C0).C0 = 0
    d = s.anticanonical
    c0 = s.class_of([("c0", 1)])
    assert (d - c0.scale(Q(1, 3))).dot(c0) == 0


def test_hirzebruch_two_decomposition():
    s = surfaces.hirzebruch(2)
    z = zariski_decompose(s, s.anticanonical)
    assert z.negative == ()
    assert z.positive_square == oracles.F2_POSITIVE_SQUARE
    assert z.null == ("c0",)


def test_ten_points_on_cubic_collapses():
    s = surfaces.cubic_with_points(10)
    z = zariski_decompose(s, s.anticanonical)
    assert z.negative == (("c", Q(1)),)
    assert z.positive.is_zero()
    assert z.positive_square == 0
    # support of N is inside the null locus; with P = 0 that is everything
    null = z.null
    assert set(cid for cid, _ in z.negative) <= set(null)
    assert set(null) == set(s.curve_ids())


def test_star_decomposition_matches_cramer_oracle():
    s = surfaces.negative_star()
    z = zariski_decompose(s, s.anticanonical)
    coeffs = dict(z.negative)
    assert coeffs["l"] == oracles.STAR_CENTER_COEFF
    for i in range(1, 6):
        assert coeffs[f"e{i}"] == oracles.STAR_LEG_COEFF
    assert coeffs["e6"] == oracles.STAR_TAIL_COEFF
    assert z.positive_square == oracles.STAR_POSITIVE_SQUARE
    # independent re-solve of the final support by Cramer's rule
    support = [cid for cid, _ in z.negative]
    gram = s.gram_of(support)
    rows = oracles.dense_gram(s.base.kind, s.base.e, len(s.blowups))
    minus_k = s.anticanonical.coords
    rhs = [
        oracles.dense_pairing(rows, minus_k, oracles.dense_coords(s.rank, s.curve(c).sparse))
        for c in support
    ]
    assert oracles.cramer_solve([list(r) for r in gram.entries], rhs) == tuple(
        coeffs[c] for c in support
    )


def test_meeting_pair_decomposition():
    s = surfaces.meeting_negative_pair()
    z = zariski_decompose(s, s.anticanonical)
    assert dict(z.negative) == {
        "l": oracles.PAIR_COEFFS[0],
        "e7": oracles.PAIR_COEFFS[1],
    }
    assert z.positive_square == oracles.PAIR_POSITIVE_SQUARE


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_invariants_on_every_fixture(name):
    s = surfaces.FIXTURES[name]()
    z = zariski_decompose(s, s.anticanonical)
    n_class = s.class_of(z.negative)
    # exact orthogonality and reconstruction
    assert z.positive.dot(n_class) == 0
    assert z.positive + n_class == s.anticanonical
    assert all(c > 0 for _, c in z.negative)
    for record in s.catalog:
        assert z.positive.dot(s.class_of([(record.curve_id, 1)])) >= 0
    null = z.null
    assert set(cid for cid, _ in z.negative) <= set(null)
    # decomposing twice gives identical results
    again = zariski_decompose(s, s.anticanonical)
    assert again.negative == z.negative and again.positive == z.positive


@pytest.mark.parametrize("name", ["star", "pair", "f3", "cubic10"])
def test_uniqueness_under_catalog_permutation(name):
    s = surfaces.FIXTURES[name]()
    z = zariski_decompose(s, s.anticanonical)
    reversed_catalog = surfaces.rebuilt(s, order=s.curve_ids()[::-1])
    z2 = zariski_decompose(reversed_catalog, reversed_catalog.anticanonical)
    assert dict(z.negative) == dict(z2.negative)
    assert z.positive == z2.positive


def test_nef_big_ample_grades():
    p2 = surfaces.projective_plane()
    three_h = p2.anticanonical
    assert nef_on_catalog(p2, three_h)
    assert zariski_decompose(p2, three_h).positive_square > 0
    assert ample_on_catalog(p2, three_h)

    f2 = surfaces.hirzebruch(2)
    anti = f2.anticanonical
    assert nef_on_catalog(f2, anti)
    assert zariski_decompose(f2, anti).positive_square > 0
    assert not ample_on_catalog(f2, anti)  # degree 0 on c0

    c10 = surfaces.cubic_with_points(10)
    assert not zariski_decompose(c10, c10.anticanonical).positive_square > 0


def test_divergence_reported_as_catalog_insufficient():
    # -K minus a deep multiple of the line is nowhere close to effective
    s = surfaces.projective_plane()
    s = declare_curve(s, "l2", (1,), 0)
    impossible = DivisorClass(s.lattice, (Q(-5),))
    with pytest.raises(CatalogInsufficient, match="catalog insufficient"):
        zariski_decompose(s, impossible)


def test_positive_square_matches_contracted_canonical_square():
    for name in ("f2", "f3", "pair"):
        s = surfaces.FIXTURES[name]()
        z = zariski_decompose(s, s.anticanonical)
        data = contract(s, z.null)
        assert data.contracted_canonical_square == z.positive_square, name


def test_pullback_monotonicity_under_redundant_blow_up():
    s = surfaces.cubic_with_points(10)
    z = zariski_decompose(s, s.anticanonical)
    s2 = blow_up(s, BlowUpRecord("extra", incidences=(("c", 1),)))
    z2 = zariski_decompose(s2, s2.anticanonical)
    from delpezzo.surface import extend_to

    assert z2.positive == extend_to(z.positive, s2)
    assert dict(z2.negative) == {"c": Q(1)}


def _random_classes(s, rng, count):
    """Integer classes -K + sum m_i C_i over one to three catalog curves,
    with small multipliers of either sign."""
    base = [x.numerator for x in s.anticanonical.coords]
    for _ in range(count):
        coords = list(base)
        for _ in range(rng.randint(1, 3)):
            curve = oracles.dense_coords(s.rank, s.catalog[rng.randrange(len(s.catalog))].sparse)
            m = rng.choice((-2, -1, 1, 2, 3))
            coords = [x + m * c for x, c in zip(coords, curve)]
        yield DivisorClass(s.lattice, coords)


# `decompose --divisor` reaches the rounds with classes that have a
# denominator, so each drawn class is also decomposed scaled by one of these
RATIONAL_FACTORS = (Q(1, 2), Q(1, 3), Q(5, 6))


def _oracle_outcomes(s, seed):
    """Decompose -K and 20 classes drawn from ``seed``, each also scaled by
    a rational factor, and compare every result with the textbook oracle;
    return the (outcome, scaled) pairs seen."""
    outcomes = set()
    # an integral Gram matrix: the oracle's determinants stay in ints
    rows = [[int(x) for x in row] for row in oracles.dense_gram(s.base.kind, s.base.e, len(s.blowups))]
    curves = [oracles.dense_coords(s.rank, r.sparse) for r in s.catalog]
    meets = oracles.curve_gram(rows, curves)
    drawn = [s.anticanonical, *_random_classes(s, random.Random(seed), 20)]
    classes = [(d, False) for d in drawn] + [
        (d.scale(RATIONAL_FACTORS[k % len(RATIONAL_FACTORS)]), True)
        for k, d in enumerate(drawn)
    ]
    for d, scaled in classes:
        expected = oracles.oracle_zariski(rows, curves, meets, d.coords)
        try:
            z = zariski_decompose(s, d)
        except CatalogInsufficient:
            assert expected is None, (seed, d.coords)
            outcomes.add(("fails", scaled))
            continue
        assert expected is not None, (seed, d.coords)
        positive, negative = expected
        assert z.positive.coords == positive
        assert z.negative == tuple((s.catalog[i].curve_id, c) for i, c in negative)
        assert z.positive_square == oracles.dense_pairing(rows, positive, positive)
        assert z.max_coefficient == max((c for _, c in negative), default=0)
        assert z.null == tuple(
            r.curve_id
            for r, curve in zip(s.catalog, curves)
            if oracles.dense_pairing(rows, positive, curve) == 0
        )
        outcomes.add(("decomposes" if negative else "nef", scaled))
    return outcomes


def test_decomposition_matches_textbook_oracle():
    outcomes = set()
    for index, s in enumerate(fixture_models() + corpus_head(1) + corpus_head(2)):
        outcomes |= _oracle_outcomes(s, index)
    assert outcomes == {
        (outcome, scaled) for outcome in ("fails", "decomposes", "nef") for scaled in (False, True)
    }


def test_rounds_that_skip_untouched_curves_match_textbook_oracle_on_line_stars():
    # ranks 25, 21, 41 and 63: a round tests only the curves that the
    # support's rows touch, and the oracle tests every curve in every round
    outcomes = set()
    for index, spec in enumerate(BENCHMARK_LINE_STARS):
        outcomes |= _oracle_outcomes(from_description(line_star(*spec)), index)
    assert {outcome for outcome, _ in outcomes} == {"fails", "decomposes"}


def _with_wrong_entry(monkeypatch, curve_id, other_id, delta):
    """Make ``SurfaceModel.meets`` return one wrong entry: row ``curve_id``,
    column ``other_id``."""
    original = SurfaceModel.meets

    def meets(self, cid):
        row = original(self, cid)
        if cid != curve_id:
            return row
        wrong = list(row)
        wrong[self.position(other_id)] += delta
        return tuple(wrong)

    monkeypatch.setattr(SurfaceModel, "meets", meets)


@pytest.mark.parametrize(
    "curve_id, other_id, problem",
    [
        # e1^2 = -3 instead of -2 inside the support block: the solve
        # meets a wrong Gram matrix
        ("e1", "e1", "P is not orthogonal to the support of N"),
        # l.e5 = 0 instead of 1, outside the support block: the scan never
        # sees that P is negative on e5
        ("l", "e5", "P is negative on a catalog curve"),
    ],
)
def test_wrong_table_entry_is_an_internal_inconsistency(
    monkeypatch, capsys, tmp_path, curve_id, other_id, problem
):
    path = tmp_path / "line_star.json"
    path.write_text(json.dumps(line_star(6, 4, 2)), encoding="utf-8")
    _with_wrong_entry(monkeypatch, curve_id, other_id, -1)
    s = from_description(line_star(6, 4, 2))
    with pytest.raises(InternalInconsistency, match=problem):
        zariski_decompose(s, s.anticanonical)
    assert cli.main(["analyze", str(path)]) == 3
    assert problem in capsys.readouterr().err
