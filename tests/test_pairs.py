"""Pair-class deciders, witnesses, pushforwards, and redundant blow-ups."""
import ast
import functools
import itertools
import operator
import pathlib
import random
import sys
from fractions import Fraction as Q

import pytest

import oracles
import surfaces
from delpezzo import corpus, pairs, singular, surface
from delpezzo.errors import (
    GeometryError,
    InvalidSurfaceData,
    PreconditionFailure,
    RedundancyViolation,
)
from delpezzo.pairs import (
    AnticanonicalAnalysis,
    RedundantPoint,
    certify_class_equalities,
    check_EP_condition,
    classify_nonrational,
    construct_klt_boundary,
    construct_klt_boundary_via_cone,
    cox_finitely_generated,
    decide_klt_pair_exists,
    decide_weak_lc_pair_exists,
    find_redundant_points,
    make_boundary,
    pushforward_pair,
    redundant_blow_up,
    _witness,
)
from delpezzo.singular import contract
from delpezzo.surface import (
    BlowUpRecord,
    blow_up,
    build_base,
    declare_curve,
    extend_to,
    from_description,
)
from delpezzo.zariski import ample_on_catalog, nef_on_catalog, zariski_decompose
from test_analysis import line_star

NINE_POINT_BOUNDARY = tuple(
    (f"l{i}_{j}", Q(1, 10)) for i in range(1, 10) for j in range(1, 4)
)


VALIDATED = ("validated", "validated")


def oracle_reasons(s, components):
    """``oracles.pair_reasons`` of the boundary ``components`` on s: the
    oracle's Gram matrix and K, and the catalog's classes and smooth flags."""
    kind, e, blowups = s.base.kind, s.base.e, len(s.blowups)
    curves = {
        r.curve_id: (oracles.dense_coords(s.rank, r.sparse), r.smooth) for r in s.catalog
    }
    return oracles.pair_reasons(
        oracles.dense_gram(kind, e, blowups),
        oracles.canonical_coords(kind, e, s.base.genus, blowups),
        curves,
        components,
    )


def corpus_draws(seed, count, max_rank=12):
    """The analyses of the first ``count`` surfaces `corpus --seed` keeps."""
    rng = random.Random(seed)
    kept = 0
    while kept < count:
        analysis = corpus._random_analysis(rng, max_rank)
        if analysis is not None:
            kept += 1
            yield analysis


# -- deciders ---------------------------------------------------------------

def test_plane_is_klt_with_zero_boundary():
    verdict = decide_klt_pair_exists(surfaces.projective_plane())
    assert verdict.member
    assert verdict.witness.components == ()


def test_hirzebruch_three_klt_true():
    verdict = decide_klt_pair_exists(surfaces.hirzebruch(3))
    assert verdict.member
    assert dict(verdict.witness.components).get("c0", 0) < 1


def test_cubic_fixture_klt_false_weak_true():
    s = surfaces.cubic_with_points(10)
    klt = decide_klt_pair_exists(s)
    assert not klt.member
    weak = decide_weak_lc_pair_exists(s)
    assert weak.member
    assert weak.witness.components == (("c", Q(1)),)
    assert "not big" in weak.caveat


def test_star_weak_false():
    verdict = decide_weak_lc_pair_exists(surfaces.negative_star())
    assert not verdict.member
    assert "4/3" in verdict.reason


def test_dp_fixtures_all_klt():
    for k in (3, 8):
        verdict = decide_klt_pair_exists(surfaces.del_pezzo(k))
        assert verdict.member, k
        assert verdict.witness.components == ()


def test_verdict_caveat_is_catalog_relative():
    verdict = decide_klt_pair_exists(surfaces.hirzebruch(2))
    assert "relative to declared catalog" in verdict.caveat


# -- witness constructions ---------------------------------------------------

def test_f2_direct_witness():
    s = surfaces.hirzebruch(2)
    boundary, params = _witness(AnticanonicalAnalysis(s), via_cone=False)
    assert params.multipliers == (("c0", oracles.F2_L_COEFF),)
    assert boundary.floor_is_zero and boundary.snc
    target = s.anticanonical - s.class_of(boundary.components)
    assert target.dot(s.class_of([("c0", 1)])) > 0


def test_f3_direct_witness():
    s = surfaces.hirzebruch(3)
    boundary, params = _witness(AnticanonicalAnalysis(s), via_cone=False)
    assert params.multipliers == (("c0", oracles.F3_L_COEFF),)
    # Delta = N + eps L = (1/3 + eps/3) c0
    assert dict(boundary.components).get("c0", 0) == Q(1, 3) + params.epsilon * Q(1, 3)


def test_pair_fixture_witness_frozen_values():
    s = surfaces.meeting_negative_pair()
    boundary, params = _witness(AnticanonicalAnalysis(s), via_cone=False)
    assert dict(params.multipliers) == {
        "l": oracles.PAIR_L_COEFFS[0],
        "e7": oracles.PAIR_L_COEFFS[1],
    }
    assert params.epsilon == oracles.PAIR_EPSILON
    assert oracle_reasons(s, boundary.components) == VALIDATED


def test_cone_witness_differs_but_validates():
    s = surfaces.hirzebruch(2)
    analysis = AnticanonicalAnalysis(s)
    direct, p_direct = _witness(analysis, via_cone=False)
    cone, p_cone = _witness(analysis, via_cone=True)
    assert p_direct.multipliers != p_cone.multipliers
    assert p_cone.multipliers == (("c0", Q(1)),)
    for boundary in (direct, cone):
        assert oracle_reasons(s, boundary.components) == VALIDATED


@pytest.mark.parametrize(
    "name", ["p2", "f2", "f3", "dp3", "dp8", "pair", "corpus1", "corpus2", "corpus3"]
)
def test_both_constructions_validate_on_klt_fixtures(name):
    # the public constructions, not _witness: each klt surface's direct and
    # cone boundaries, and each weak surface's N, pass the oracle
    if name.startswith("corpus"):
        models = [a.s for a in corpus_draws(int(name[len("corpus"):]), 20)]
    else:
        models = [surfaces.FIXTURES[name]()]
    for s in models:
        z = zariski_decompose(s, s.anticanonical)
        if z.positive_square > 0 and z.max_coefficient < 1:
            for construct in (construct_klt_boundary, construct_klt_boundary_via_cone):
                assert oracle_reasons(s, construct(s).components) == VALIDATED, name
        if z.max_coefficient <= 1:
            assert oracle_reasons(s, z.negative)[1] == "validated", name


def test_witness_construction_refuses_non_klt():
    with pytest.raises(PreconditionFailure):
        construct_klt_boundary(surfaces.cubic_with_points(10))
    with pytest.raises(PreconditionFailure):
        construct_klt_boundary_via_cone(surfaces.negative_star())


# -- corollary biconditional -------------------------------------------------

@pytest.mark.parametrize(
    "name",
    ["p2", "f2", "f3", "dp3", "dp8", "cubic10", "star", "pair", "elliptic_ruled"],
)
def test_klt_decider_iff_floor_zero_iff_witness(name):
    s = surfaces.FIXTURES[name]()
    z = zariski_decompose(s, s.anticanonical)
    floor_zero = z.max_coefficient < 1 and z.positive_square > 0
    verdict = decide_klt_pair_exists(s)
    assert verdict.member == floor_zero
    try:
        boundary = construct_klt_boundary(s)
        witness_ok = oracle_reasons(s, boundary.components)[0] == "validated"
    except Exception:
        witness_ok = False
    assert witness_ok == verdict.member


# -- log-resolution effectivity ----------------------------------------------

def test_identity_resolution_is_trivially_effective():
    s = surfaces.hirzebruch(3)
    boundary = construct_klt_boundary(s)
    check = check_EP_condition(s, boundary.components, ())
    assert check.effective and check.discrepancies == ()


def test_nine_point_configuration():
    base = surfaces.nine_point_pair_base()
    check = check_EP_condition(base, NINE_POINT_BOUNDARY, surfaces.nine_point_records())
    # the pair is klt (discrepancy 7/10 everywhere) ...
    assert check.pair_is_klt
    assert all(a == oracles.NINE_POINT_DISCREPANCY for _, a in check.discrepancies)
    # ... but the comparison divisor is negative: not in the effective class
    assert not check.effective
    # and the pair on the plane really is a klt del Pezzo pair
    assert oracle_reasons(base, NINE_POINT_BOUNDARY) == VALIDATED


# three near= records in a chain over a point of a line in the plane
_NEAR_CHAIN = (
    BlowUpRecord("p1", (("h", 1),), None, "e1"),
    BlowUpRecord("p2", (("e1", 1),), "e1", "e2"),
    BlowUpRecord("p3", (("e2", 1),), "e2", "e3"),
)


def _resolution_inputs():
    """(smooth model, boundary, records) for the one-stage resolution."""
    return (
        (surfaces.nine_point_pair_base(), NINE_POINT_BOUNDARY, surfaces.nine_point_records()),
        (surfaces.hirzebruch(2), (("f", Q(1, 2)), ("c0", Q(1, 3))), (_EP_RECORD,)),
        (surfaces.projective_plane(), (("h", Q(1, 2)),), _NEAR_CHAIN),
    )


def _stepwise_resolution(s_down, boundary, records):
    """The check on a model grown record by record with the public
    ``blow_up``, as (model, discrepancies, effective, klt, lc)."""
    s_up, new_ids = s_down, []
    for rec in records:
        s_up = blow_up(s_up, rec)
        new_ids.append(s_up.blowups[-1].exceptional_id)
    boundary = singular._as_boundary(s_up, boundary, new_ids)
    assert singular.is_snc_configuration(s_up, [cid for cid, _ in boundary] + new_ids)
    discs = singular.discrepancies_with_boundary(s_up, new_ids, boundary)
    divisor = [-a for _, a in discs]
    klt = all(a > -1 for _, a in discs) and all(c < 1 for _, c in boundary)
    return s_up, discs, all(c >= 0 for c in divisor), klt, all(a >= -1 for _, a in discs)


def test_one_stage_resolution_matches_stepwise_blow_ups(monkeypatch):
    models = []
    model = surface._Stage.model

    def counting(stage):
        models.append(stage)
        return model(stage)

    cases = [(args, _stepwise_resolution(*args)) for args in _resolution_inputs()]
    monkeypatch.setattr(surface._Stage, "model", counting)
    for (s_down, boundary, records), (stepwise, discs, effective, klt, lc) in cases:
        models.clear()
        check = check_EP_condition(s_down, boundary, records)
        assert len(models) == 1
        assert (check.discrepancies, check.effective) == (discs, effective)
        assert (check.pair_is_klt, check.pair_is_lc) == (klt, lc)
        resolved = check.resolved
        assert resolved.lattice == stepwise.lattice
        assert resolved.catalog == stepwise.catalog
        assert list(resolved.incidence.items()) == list(stepwise.incidence.items())
        assert resolved.blowups == stepwise.blowups
        # with no records the resolution is the smooth model, not a copy
        models.clear()
        assert check_EP_condition(s_down, boundary, ()).resolved is s_down
        assert models == []


@pytest.mark.parametrize(
    "bad", [BlowUpRecord("q", (("nope", 1),)), BlowUpRecord("p1", (("e1", 1),))]
)
def test_bad_record_mid_resolution_has_the_stepwise_message(bad):
    s_down, records = surfaces.projective_plane(), (_NEAR_CHAIN[0], bad, _NEAR_CHAIN[2])
    with pytest.raises(InvalidSurfaceData) as stepwise:
        _stepwise_resolution(s_down, (), records)
    with pytest.raises(InvalidSurfaceData) as staged:
        check_EP_condition(s_down, (), records)
    assert str(staged.value) == str(stepwise.value)


def test_contraction_route_on_f3():
    # the EP divisor of a contraction is minus the discrepancies of (Y, D)
    s = surfaces.hirzebruch(3)
    divisor = tuple((cid, -a) for cid, a in singular.discrepancies_with_boundary(s, ("c0",), ()))
    assert all(c >= 0 for _, c in divisor)
    assert divisor == (("c0", Q(1, 3)),)


def ep_sweep():
    """(surface, contracted subset of Null(P), boundary) triples: the 12
    fixtures and 20 corpus draws each of seeds 1 and 7, every subset of
    Null(P) with the rest of the direct witness as the boundary."""
    analyses = [AnticanonicalAnalysis(build()) for _, build in sorted(surfaces.FIXTURES.items())]
    analyses += list(corpus_draws(1, 20)) + list(corpus_draws(7, 20))
    for analysis in analyses:
        try:
            witness = analysis.witness[0].components
        except GeometryError:
            continue
        null = analysis.decomposition.null
        for k in range(len(null) + 1):
            for contracted in itertools.combinations(null, k):
                boundary = tuple((c, q) for c, q in witness if c not in contracted)
                yield analysis.s, contracted, boundary


def test_contraction_route_matches_the_two_solve_oracle():
    # the divisor is -a + sum c*mu, solved apart by Cramer's rule
    cases = contracted_sizes = 0
    for s, contracted, boundary in ep_sweep():
        rows = oracles.dense_gram(s.base.kind, s.base.e, len(s.blowups))
        expected = oracles.ep_divisor(
            rows,
            s.canonical.coords,
            [oracles.dense_coords(s.rank, s.curve(c).sparse) for c in contracted],
            [(oracles.dense_coords(s.rank, s.curve(c).sparse), q) for c, q in boundary],
        )
        discs = singular.discrepancies_with_boundary(s, contracted, boundary)
        divisor = tuple((cid, -a) for cid, a in discs)
        assert divisor == tuple(zip(contracted, expected)), (contracted, boundary)
        assert all(a <= 0 for _, a in discs) == all(c >= 0 for c in expected)
        cases += 1
        contracted_sizes += len(contracted)
    assert cases > 100 and contracted_sizes > cases


@pytest.fixture
def solves(monkeypatch):
    """Counts integer solves at their singular and pairs import sites."""
    counts = {"singular": 0, "pairs": 0}
    for module in (singular, pairs):
        name = module.__name__.rsplit(".", 1)[1]

        def counting(*args, _original=module._solve_integers, _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, "_solve_integers", counting)
    return counts


def test_contraction_route_makes_one_elimination(solves):
    singular.discrepancies_with_boundary(surfaces.hirzebruch(2), ("c0",), (("f", Q(1, 2)),))
    assert solves == {"singular": 1, "pairs": 0}


def test_good_boundary_solves_the_contraction_once(solves):
    s = surfaces.hirzebruch(3)
    pushforward_pair(s, ("c0",), AnticanonicalAnalysis(s).witness[0].components)
    assert solves["singular"] == 1


def test_unknown_contracted_curve_is_invalid_data():
    f2, chain = surfaces.hirzebruch(2), surfaces.elliptic_ruled_with_chain()
    for call in (
        lambda: contract(f2, ("c0", "nope")),
        lambda: pushforward_pair(f2, ("nope",), ()),
        lambda: classify_nonrational(chain, contracted=("e1", "nope")),
        lambda: cox_finitely_generated(surfaces.projective_plane(), contracted=("nope",)),
        lambda: classify_nonrational(surfaces.projective_plane(), contracted=("nope",)),
    ):
        with pytest.raises(InvalidSurfaceData, match="'nope' not in catalog"):
            call()


def test_unknown_boundary_curve_is_invalid_data():
    s = surfaces.hirzebruch(2)
    for call in (
        lambda: singular.discrepancies_with_boundary(s, ("c0",), (("nope", Q(1, 2)),)),
        lambda: pushforward_pair(s, (), (("nope", Q(1, 2)),)),
        lambda: make_boundary(s, (("nope", Q(1, 2)),)),
    ):
        with pytest.raises(InvalidSurfaceData, match="'nope' not in catalog"):
            call()


def test_boundary_coefficient_above_one_is_invalid_data():
    s = surfaces.hirzebruch(2)
    for call in (
        lambda: check_EP_condition(s, (("f", 3),), ()),
        lambda: pushforward_pair(s, (), (("f", 3),)),
        lambda: make_boundary(s, (("f", 3),)),
        lambda: singular.discrepancies_with_boundary(s, ("c0",), (("f", 3),)),
    ):
        with pytest.raises(InvalidSurfaceData, match="coefficient 3 outside"):
            call()


# F2 blown up at a point of a fibre f, whose exceptional curve e is the
# contracted set of every entry point below
_EP_RECORD = BlowUpRecord("p", (("f", 1),), None, "e")


def _boundary_entry_points():
    """The four pair entry points, each as a function of a boundary."""
    down = surfaces.hirzebruch(2)
    up = blow_up(down, _EP_RECORD)
    return (
        lambda b: singular.discrepancies_with_boundary(up, ("e",), b),
        lambda b: check_EP_condition(down, b, (_EP_RECORD,)),
        lambda b: make_boundary(up, b),
        lambda b: pushforward_pair(up, ("e",), b),
    )


@pytest.mark.parametrize(
    "boundary,message",
    [
        ((("nope", Q(1, 2)),), "boundary curve 'nope' not in catalog"),
        ((("f", Q(3, 2)),), "boundary coefficient 3/2 outside [0, 1]"),
        ((("f", Q(-1, 2)),), "boundary coefficient -1/2 outside [0, 1]"),
        ((("f", Q(1, 2)), ("c0", Q(1, 3)), ("f", Q(1, 4))), "boundary curve 'f' listed twice"),
        ((("f", "x"),), "boundary coefficient 'x' is not a rational number"),
        ((("f", None),), "boundary coefficient None is not a rational number"),
        ((("f", 0.5),), "boundary coefficient 0.5 is not a rational number"),
        ((("f", True),), "boundary coefficient True is not a rational number"),
        ((("f",),), "boundary term ('f',) is not a (curve id, coefficient) pair"),
        (
            (("f", "1/2", "x"),),
            "boundary term ('f', '1/2', 'x') is not a (curve id, coefficient) pair",
        ),
        (((["f"], "1/2"),), "boundary curve ['f'] is not a string"),
        (5, "boundary 5 is not a list of (curve id, coefficient) terms"),
    ],
)
def test_malformed_boundary_has_one_message_at_every_entry_point(boundary, message):
    for call in _boundary_entry_points():
        with pytest.raises(InvalidSurfaceData) as info:
            call(boundary)
        assert str(info.value) == message


def _curve_set_entry_points():
    """Every entry point that reads a curve set, each as a function of it."""
    s = surfaces.hirzebruch(2)
    return (
        lambda c: contract(s, c),
        lambda c: singular.connected_components(s, c),
        lambda c: singular.dual_graph(s, c),
        lambda c: singular.is_snc_configuration(s, c),
        lambda c: singular.discrepancies_with_boundary(s, c, ()),
        lambda c: pushforward_pair(s, c, ()),
        lambda c: classify_nonrational(s, contracted=c),
        lambda c: cox_finitely_generated(s, contracted=c),
    )


@pytest.mark.parametrize(
    "curves,message",
    [
        (("c0", "nope"), "curve 'nope' not in catalog"),
        (5, "curve set 5 is not a list of curve ids"),
        ("c0", "curve set 'c0' is a string, not a list of curve ids"),
        ([["c0"]], "curve ['c0'] is not a string"),
    ],
)
def test_malformed_curve_set_has_one_message_at_every_entry_point(curves, message):
    for call in _curve_set_entry_points():
        with pytest.raises(InvalidSurfaceData) as info:
            call(curves)
        assert str(info.value) == message


def test_contracted_boundary_curve_has_one_message():
    # the other entry points have no contracted set, or drop the term
    for call in _boundary_entry_points()[:2]:
        with pytest.raises(InvalidSurfaceData) as info:
            call((("e", Q(1, 2)),))
        assert str(info.value) == "boundary curve 'e' cannot also be contracted"


def test_zero_boundary_terms_are_dropped():
    s = declare_curve(surfaces.projective_plane(), "cub", (3,), 1)
    with_zero = check_EP_condition(s, [("h", Q(1, 2)), ("cub", 0)], ())
    assert with_zero == check_EP_condition(s, [("h", Q(1, 2))], ())


def test_repeated_boundary_id_is_invalid_data():
    # half a line twice is the line, whose coefficient 1 is not klt
    with pytest.raises(InvalidSurfaceData, match="'h' listed twice"):
        make_boundary(surfaces.projective_plane(), [("h", Q(1, 2)), ("h", Q(1, 2))])
    with pytest.raises(InvalidSurfaceData, match="'f' listed twice"):
        pushforward_pair(surfaces.hirzebruch(2), ("c0",), [("f", Q(3, 4)), ("f", Q(3, 4))])


# -- good boundaries: the direct witness pushed down a contraction ------------

@pytest.mark.parametrize("name,expected", [("f2", Q(0)), ("f3", Q(1, 3))])
def test_good_boundary_pipeline(name, expected):
    s = surfaces.FIXTURES[name]()
    push = pushforward_pair(s, ("c0",), AnticanonicalAnalysis(s).witness[0].components)
    # boundary supported entirely on the contracted curve
    assert push.boundary_downstairs == ()
    # the EP divisor is minus the discrepancies of the pushed-forward pair
    assert all(a <= 0 for _, a in push.discrepancies)
    assert {cid: -a for cid, a in push.discrepancies} == {"c0": expected}
    assert push.klt_del_pezzo


def test_good_boundary_trivial_on_plane():
    s = surfaces.projective_plane()
    push = pushforward_pair(s, (), AnticanonicalAnalysis(s).witness[0].components)
    assert push.boundary_downstairs == () and all(a <= 0 for _, a in push.discrepancies)


# -- pushforward --------------------------------------------------------------

def test_pushforward_identity():
    s = surfaces.projective_plane()
    result = pushforward_pair(s, (), ())
    assert result.klt_del_pezzo


def test_pushforward_f2_is_klt_del_pezzo():
    s = surfaces.hirzebruch(2)
    boundary = construct_klt_boundary(s)
    result = pushforward_pair(s, ("c0",), boundary.components)
    assert result.klt_del_pezzo
    assert result.boundary_downstairs == ()


def test_pushforward_of_coefficient_one_component_not_klt():
    s = surfaces.cubic_with_points(10)
    result = pushforward_pair(s, ("c",), (("c", Q(1)),))
    assert not result.klt
    assert "discrepancy -1" in result.reason


def test_pushforward_recertifies_all_klt_fixtures():
    for name in ("p2", "f2", "f3", "dp3", "dp8", "pair"):
        s = surfaces.FIXTURES[name]()
        boundary = construct_klt_boundary(s)
        z = zariski_decompose(s, s.anticanonical)
        null_ids = tuple(
            r.curve_id
            for r in s.catalog
            if z.positive.dot(s.class_of([(r.curve_id, 1)])) == 0
        )
        result = pushforward_pair(s, null_ids, boundary.components)
        assert result.klt_del_pezzo, (name, result.reason)


# -- redundant points ----------------------------------------------------------

def test_no_redundant_points_on_plane_or_f3():
    assert find_redundant_points(surfaces.projective_plane()) == ()
    assert find_redundant_points(surfaces.hirzebruch(3)) == ()


def test_cubic_fixture_generic_redundant_point():
    points = find_redundant_points(surfaces.cubic_with_points(10))
    assert len(points) == 1
    assert points[0].kind == "generic"
    assert points[0].curve_ids == ("c",)
    assert points[0].multiplicity == 1


def test_meeting_pair_shared_redundant_point():
    points = find_redundant_points(surfaces.meeting_negative_pair())
    assert len(points) == 1
    point = points[0]
    assert point.kind == "shared"
    assert point.multiplicity == oracles.PAIR_SHARED_MULT
    assert set(point.curve_ids) == {"l", "e7"}


@pytest.mark.parametrize("spec", [(10, 5, 1), (56, 2, 3)])
def test_redundant_points_match_an_enumeration_of_every_pair(spec):
    # (10, 5, 1): 11 N-curves, 10 of them meeting l; (56, 2, 3): some pairs
    # share a point but their coefficients sum to less than 1
    s = from_description(line_star(*spec))
    negative = zariski_decompose(s, s.anticanonical).negative
    expected = [RedundantPoint("generic", (a,), c) for a, c in negative if c >= 1]
    for (a, ca), (b, cb) in itertools.combinations(negative, 2):
        if ca + cb >= 1:
            point_id = s.incidence.get((a, b) if a <= b else (b, a))
            if point_id is not None:
                expected.append(RedundantPoint("shared", (a, b), ca + cb, point_id))
    assert sum(p.kind == "shared" for p in expected) >= 4
    assert find_redundant_points(s) == tuple(expected)


def test_redundant_blow_up_law_generic():
    s = surfaces.cubic_with_points(10)
    before = zariski_decompose(s, s.anticanonical)
    a = AnticanonicalAnalysis(s)
    result = redundant_blow_up(a, a.redundant_points[0])
    after = zariski_decompose(result.model, result.model.anticanonical)
    assert after.positive == extend_to(before.positive, result.model)
    assert dict(after.negative) == {"c": Q(1)}


def test_redundant_blow_up_law_shared():
    a = AnticanonicalAnalysis(surfaces.meeting_negative_pair())
    result = redundant_blow_up(a, a.redundant_points[0])
    coeffs = dict(result.negative_after)
    assert coeffs["l"] == oracles.PAIR_COEFFS[0]
    assert coeffs["e7"] == oracles.PAIR_COEFFS[1]
    assert coeffs[result.exceptional_id] == oracles.PAIR_SHARED_MULT - 1


@pytest.mark.parametrize(
    "build,count",
    [
        (surfaces.negative_star, 7),
        (lambda: from_description(line_star(6, 4, 2)), 21),
        (lambda: from_description(line_star(10, 5, 1)), 11),
        (lambda: from_description(line_star(56, 2, 3)), 4),
    ],
    ids=["star", "line_star(6,4,2)", "line_star(10,5,1)", "line_star(56,2,3)"],
)
def test_redundant_blow_up_law_at_every_redundant_point(build, count):
    # each blow-up decomposes -K again, on supports of up to 12 curves, and
    # raises RedundancyViolation if P or N does not pull back
    a = AnticanonicalAnalysis(build())
    z = a.decomposition
    assert len(a.redundant_points) == count
    for point in a.redundant_points:
        result = redundant_blow_up(a, point)
        assert result.pulled_back_positive == extend_to(z.positive, result.model)


def test_two_redundant_blow_ups_compose():
    s = surfaces.cubic_with_points(10)
    a = AnticanonicalAnalysis(s)
    first = redundant_blow_up(a, a.redundant_points[0])
    a = AnticanonicalAnalysis(first.model)
    second = redundant_blow_up(a, a.redundant_points[0])
    assert dict(second.negative_after) == {"c": Q(1)}
    assert second.model.rank == s.rank + 2


def test_non_redundant_point_rejected():
    s = surfaces.hirzebruch(3)
    fake = RedundantPoint("generic", ("c0",), Q(1, 3))
    with pytest.raises(RedundancyViolation):
        redundant_blow_up(AnticanonicalAnalysis(s), fake)


def test_class_verdicts_invariant_under_redundant_blow_up():
    for name in ("cubic10", "pair", "elliptic_ruled"):
        s = surfaces.FIXTURES[name]()
        before = certify_class_equalities(s)
        a = AnticanonicalAnalysis(s)
        result = redundant_blow_up(a, a.redundant_points[0])
        after = certify_class_equalities(result.model)
        assert dict(before.klt) == dict(after.klt), name
        assert dict(before.weak) == dict(after.weak), name
        assert after.consistent, name


# -- non-rational classification and Cox --------------------------------------

def _through_section_and_fibre(*records):
    """The elliptic ruled surface with e = 1 blown up at the point where c0
    meets f, then at the given records."""
    s = blow_up(surfaces.elliptic_ruled(1), BlowUpRecord("p1", (("c0", 1), ("f", 1))))
    for rec in records:
        s = blow_up(s, rec)
    return s


@pytest.mark.parametrize(
    "build,message",
    [
        (surfaces.projective_plane, "requires a ruled surface over a curve of genus >= 1"),
        # -K = 2 c0 has square 0
        (lambda: build_base("ruled", e=0, genus=1), "not a big anticanonical surface"),
        # c0 said rational is blown down
        (
            lambda: surfaces.rebuilt(surfaces.elliptic_ruled(1), c0={"p_a": 0}),
            "inconsistent with the classification: expected exactly one genus-one "
            "section on the minimal resolution, found 0",
        ),
        (
            lambda: surfaces.rebuilt(surfaces.elliptic_ruled(1), c0={"smooth": False}),
            "the genus-one curve is not smooth; it cannot be contracted to a simple "
            "elliptic point",
        ),
        # e1 becomes a (-3)-curve
        (
            lambda: _through_section_and_fibre(
                BlowUpRecord("p2", (("e1", 1),)), BlowUpRecord("p3", (("e1", 1), ("f", 1)))
            ),
            "exceptional curve 'e1' is not a (-2)-curve on the minimal resolution",
        ),
        # e1 becomes a (-2)-curve through a point of c0
        (
            lambda: _through_section_and_fibre(BlowUpRecord("p2", (("e1", 1),))),
            "(-2)-curve 'e1' meets the elliptic section; inconsistent with the "
            "classification",
        ),
    ],
    ids=[
        "rational", "not big", "no genus-one section", "singular section",
        "not a (-2)-curve", "meets the section",
    ],
)
def test_nonrational_classification_rejects(build, message):
    report = classify_nonrational(build())
    assert (report.ok, report.case, report.message) == (False, None, message)


def test_elliptic_ruled_classifies_case_one():
    report = classify_nonrational(surfaces.elliptic_ruled(1))
    assert report.ok
    assert report.case == 1
    assert report.elliptic_curve == "c0"
    assert report.factorization == ()


def test_classification_after_one_redundant_blow_up():
    a = AnticanonicalAnalysis(surfaces.elliptic_ruled(1))
    result = redundant_blow_up(a, a.redundant_points[0])
    report = classify_nonrational(result.model)
    assert report.ok and report.case == 1
    assert len(report.factorization) == 1


def test_chain_fixture_factors_to_minimal():
    report = classify_nonrational(surfaces.elliptic_ruled_with_chain())
    assert report.ok and report.case == 1
    # e1 is a (-2)-curve until e2 is blown down
    assert report.factorization == ("e2", "e1")


def test_case_two_when_elliptic_curve_survives():
    s = surfaces.elliptic_ruled_with_chain()
    report = classify_nonrational(s, contracted=("e1",))
    assert report.ok and report.case == 2
    # the contracted chain really is an A1
    from delpezzo.singular import contract

    data = contract(s, ("e1",))
    assert data.tags == ("DuVal",)


# the elliptic ruled surface with e = 2 blown up once on a fibre: the strict
# transform f - e1 is a (-1)-curve but not an exceptional axis
FIBRE_BLOWN_UP = {
    "base": {"kind": "ruled", "genus": 1, "e": 2},
    "curves": [],
    "blowups": [{"point": "rp2", "exceptional": "e1", "on": [["f", 1]]}],
}


def test_nonaxis_minus_one_curve_is_blown_down():
    s = from_description(FIBRE_BLOWN_UP)
    report = classify_nonrational(s)
    assert report.ok and report.case == 1, report.message
    assert report.elliptic_curve == "c0"
    assert report.factorization == ("f",)
    assert cox_finitely_generated(s)[0]


@functools.cache
def model_set_analyses():
    """The 12 fixtures, and 20 corpus draws each of seeds 1-3 at rank caps
    12 and 40."""
    analyses = [AnticanonicalAnalysis(build()) for _, build in sorted(surfaces.FIXTURES.items())]
    for max_rank in (12, 40):
        for seed in (1, 2, 3):
            analyses += corpus_draws(seed, 20, max_rank)
    return tuple(analyses)


def test_negative_part_is_minus_the_discrepancies():
    # P.E = 0 on the model set, so N's coefficients x solve M x = -K.E, and
    # the discrepancies a solve M a = K.E: on an independent Gram matrix,
    # a = -x on N's support and 0 elsewhere solves it, and so does the
    # oracle's row reduction, on every model set up to the 23- and 25-curve
    # ones (Cramer's rule would need 24 and 26 cofactor determinants there)
    for analysis in model_set_analyses():
        s, ids, z = analysis.s, analysis.model_set, analysis.decomposition
        rows = oracles.dense_gram(s.base.kind, s.base.e, len(s.blowups))
        classes = [oracles.dense_coords(s.rank, s.curve(c).sparse) for c in ids]
        rhs = [oracles.dense_pairing(rows, s.canonical.coords, c) for c in classes]
        gram = oracles.curve_gram(rows, classes)
        expected = tuple(-dict(z.negative).get(c, 0) for c in ids)
        assert [sum(map(operator.mul, row, expected)) for row in gram] == rhs, ids
        assert oracles.row_reduce_solve(gram, rhs) == expected, ids
        assert analysis.model.discrepancies == tuple(zip(ids, expected))
    assert len(model_set_analyses()) == 132
    assert max(len(a.model_set) for a in model_set_analyses()) == 25


def test_oracle_accepts_every_witness():
    # the weak verdict tests only N's snc flag, and the klt witness with
    # Null(P) empty is returned unchecked: the oracle still runs every check
    # (snc, floor, ampleness or nefness) on both routes' klt witnesses and on
    # N.  The witness checks neither that Null(P) is snc nor that L is
    # positive, as exact algebra settles both once P^2 > 0 and max N < 1:
    # both hold here, as each witness's support is all of Null(P).  certify
    # copies each decider's bit into the snc, log-resolution and
    # minimal-resolution members because every witness passes
    klt = weak = empty = 0
    nonempty = {False: 0, True: 0}
    for analysis in model_set_analyses():
        s, z = analysis.s, analysis.decomposition
        klt_member = z.positive_square > 0 and z.max_coefficient < 1
        assert analysis.klt_verdict.member == klt_member
        if klt_member:
            klt += 1
            empty += not z.null
            for via_cone in (False, True):
                boundary, (_, multipliers) = (
                    _witness(analysis, True) if via_cone else analysis.witness
                )
                assert oracle_reasons(s, boundary.components) == VALIDATED
                assert [cid for cid, _ in boundary.components] == list(z.null)
                assert all(c > 0 for _, c in multipliers)
                nonempty[via_cone] += bool(multipliers)
            assert analysis.klt_verdict.witness == analysis.witness[0]
        reasons = oracle_reasons(s, z.negative)
        snc = reasons[1] != "boundary support is not snc"
        assert analysis.weak_verdict.member == (z.max_coefficient <= 1 and snc)
        if analysis.weak_verdict.member:
            weak += 1
            assert analysis.weak_verdict.witness.components == z.negative
            assert reasons[1] == "validated"
    assert (klt, weak, empty) == (116, 122, 35)
    assert nonempty == {False: 81, True: 81}


def test_public_validators_accept_every_witness():
    # README's route for testing a boundary B outside the package: the flags
    # of make_boundary(s, B), then ample_on_catalog (klt) or nef_on_catalog
    # (weak) of -(K + B); every verdict's witness passes it
    klt = weak = 0
    for analysis in model_set_analyses():
        s = analysis.s
        for verdict, klt_route in ((analysis.klt_verdict, True), (analysis.weak_verdict, False)):
            if not verdict.member:
                continue
            components = verdict.witness.components
            record = make_boundary(s, components)
            assert record.snc and (record.floor_is_zero or not klt_route)
            positive = ample_on_catalog if klt_route else nef_on_catalog
            assert positive(s, s.anticanonical - s.class_of(components))
        klt += analysis.klt_verdict.member
        weak += analysis.weak_verdict.member
    assert (klt, weak) == (116, 122)


def test_oracle_canonical_class_is_the_package_one():
    for analysis in model_set_analyses():
        s = analysis.s
        base = s.base
        expected = oracles.canonical_coords(base.kind, base.e, base.genus, len(s.blowups))
        assert expected == s.canonical.nums
    assert len(model_set_analyses()) == 132


def test_oracles_import_only_the_standard_library():
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names, imported


def test_contracted_canonical_square_is_the_class_route():
    # contract reads K_Y^2 off its solve as K^2 - sum a_i (K.E_i); the class
    # route builds K - sum a_i E_i with the oracle helpers and squares it
    for analysis in model_set_analyses():
        s, model = analysis.s, analysis.model
        rows = oracles.dense_gram(s.base.kind, s.base.e, len(s.blowups))
        pulled_back = s.canonical.coords
        for cid, a in model.discrepancies:
            term = oracles.class_scaled(oracles.dense_coords(s.rank, s.curve(cid).sparse), a)
            pulled_back = oracles.class_difference(pulled_back, term)
        assert model.contracted_canonical_square == oracles.quadratic_form(rows, pulled_back)


def test_witness_square_guard_is_the_class_route():
    # the witness guards (P - eps*L)^2 > 0 through P^2 + eps^2 * L^2, which
    # holds because L lives on Null(P); the class route builds P - eps*L
    # from WitnessParams with the oracle helpers and squares it
    built = {False: 0, True: 0}
    for analysis in model_set_analyses():
        s, z = analysis.s, analysis.decomposition
        rows = oracles.dense_gram(s.base.kind, s.base.e, len(s.blowups))
        for via_cone in (False, True):
            try:
                _, (epsilon, multipliers) = (
                    _witness(analysis, True) if via_cone else analysis.witness
                )
            except GeometryError:
                continue
            if not multipliers:
                continue
            built[via_cone] += 1
            classes = [oracles.dense_coords(s.rank, s.curve(cid).sparse) for cid, _ in multipliers]
            gram = oracles.curve_gram(rows, classes)
            coeffs = [c for _, c in multipliers]
            l_square = sum(x * g * y for x, row in zip(coeffs, gram) for g, y in zip(row, coeffs))
            l_class = [0] * s.rank
            for coords, c in zip(classes, coeffs):
                l_class = oracles.class_sum(l_class, oracles.class_scaled(coords, c))
            p = z.positive.coords
            square = oracles.quadratic_form(
                rows, oracles.class_difference(p, oracles.class_scaled(l_class, epsilon))
            )
            assert square > 0
            assert square == oracles.quadratic_form(rows, p) + epsilon**2 * l_square
    assert built == {False: 81, True: 81}


def test_witness_epsilon_halves_only_while_the_square_needs_it():
    # eps starts at min((1 - max N) / (2 max l), P.C / (2 L.C) over curves
    # with both positive), paired here on the oracle Gram matrix, and is
    # halved exactly while the oracle square of P - eps*L is not positive;
    # the 200-surface corpora of seeds 2 and 4 each hold a surface that
    # needs a halving
    checked, halved = 0, 0
    for seed in (2, 4):
        for analysis in corpus_draws(seed, 200):
            s, z = analysis.s, analysis.decomposition
            try:
                _, (epsilon, multipliers) = analysis.witness
            except GeometryError:
                continue
            if not multipliers:
                continue
            assert all(c > 0 for _, c in multipliers)
            rows = oracles.dense_gram(s.base.kind, s.base.e, len(s.blowups))
            l_class = [0] * s.rank
            for cid, c in multipliers:
                term = oracles.class_scaled(oracles.dense_coords(s.rank, s.curve(cid).sparse), c)
                l_class = oracles.class_sum(l_class, term)
            p = z.positive.coords
            expected = (1 - z.max_coefficient) / (2 * max(c for _, c in multipliers))
            for r in s.catalog:
                c = oracles.dense_coords(s.rank, r.sparse)
                p_degree = oracles.dense_pairing(rows, p, c)
                l_degree = oracles.dense_pairing(rows, l_class, c)
                if p_degree > 0 and l_degree > 0:
                    expected = min(expected, p_degree / (2 * l_degree))
            while oracles.quadratic_form(
                rows, oracles.class_difference(p, oracles.class_scaled(l_class, expected))
            ) <= 0:
                expected /= 2
                halved += 1
            assert epsilon == expected, (seed, s.rank)
            checked += 1
    assert (checked, halved) == (283, 2)


def assert_section_alone(analysis):
    """Once the shape check passes, N is the section with coefficient 1,
    and the section's square on the minimal resolution is negative."""
    section = analysis.nonrational.elliptic_curve
    assert analysis.decomposition.negative == ((section, 1),)
    _, _, dot, _, _ = pairs._blow_down_simulation(analysis.s, analysis.decomposition.null)
    assert dot[section][section] < 0


def test_nonrational_negative_part_is_the_section():
    passed = [a for a in model_set_analyses() if a.nonrational.ok]
    for analysis in passed:
        assert_section_alone(analysis)
    assert len(passed) == 4


def test_nonrational_weak_lc_corpus_draws_pass_the_shape_check():
    checked = 0
    for seed in range(1, 11):
        for analysis in corpus_draws(seed, 200):
            if analysis.s.rational or not analysis.weak_verdict.member:
                continue
            assert analysis.big
            report = analysis.nonrational
            assert report.ok, (seed, report.message)
            assert_section_alone(analysis)
            assert analysis.certify.consistent, (seed, analysis.certify.failures)
            checked += 1
    assert checked == 103


def test_genus_two_base_rejected():
    from delpezzo.surface import build_base

    s = build_base("ruled", e=3, genus=2)
    report = classify_nonrational(s)
    assert not report.ok
    assert "elliptic" in report.message


def test_cox_verdicts():
    assert cox_finitely_generated(surfaces.projective_plane())[0]
    assert cox_finitely_generated(surfaces.elliptic_ruled(1))[0]
    chain = surfaces.elliptic_ruled_with_chain()
    assert cox_finitely_generated(chain)[0]  # default: anticanonical model
    ok, reason = cox_finitely_generated(chain, contracted=("e1",))
    assert not ok and "case 2" in reason


def test_cox_precondition():
    with pytest.raises(PreconditionFailure):
        cox_finitely_generated(surfaces.negative_star())


# -- the quintet cross-check ---------------------------------------------------

@pytest.mark.parametrize(
    "name,klt,weak",
    [
        ("p2", True, True),
        ("f2", True, True),
        ("f3", True, True),
        ("dp3", True, True),
        ("dp8", True, True),
        ("pair", True, True),
        ("cubic10", False, True),
        ("star", False, False),
        ("elliptic_ruled", False, True),
        ("elliptic_ruled_chain", False, True),
    ],
)
def test_certify_on_fixtures(name, klt, weak):
    s = surfaces.FIXTURES[name]()
    report = certify_class_equalities(s)
    assert report.consistent, report.failures
    assert decide_klt_pair_exists(s).member == klt
    assert decide_weak_lc_pair_exists(s).member == weak
    assert all(v == klt for _, v in report.klt)
    assert all(v == weak for _, v in report.weak)


def test_weak_validator_demands_snc():
    # the oracle's weak check, like its klt check, refuses a nodal curve
    s = declare_curve(surfaces.projective_plane(), "nodal", (3,), 1, smooth=False)
    assert oracle_reasons(s, (("nodal", Q(1, 2)),)) == (
        "boundary support is not snc",
        "boundary support is not snc",
    )


@pytest.mark.parametrize(
    "name,components,klt,weak",
    [
        # c0 at 1 on F2: -(K + c0) = c0 + 4f is ample, but the floor is c0
        ("f2", (("c0", 1),), "boundary has a coefficient >= 1", "validated"),
        # -K.c0 = 0 on F2 and -1 on F3
        ("f2", (), "-(K + boundary) is not ample on the catalog", "validated"),
        (
            "f3",
            (),
            "-(K + boundary) is not ample on the catalog",
            "-(K + boundary) is not nef on the catalog",
        ),
    ],
    ids=["floor", "not ample", "not nef"],
)
def test_validator_failure_reasons(name, components, klt, weak):
    # the oracle can say no: each case fails one of its checks
    assert oracle_reasons(surfaces.FIXTURES[name](), components) == (klt, weak)


def test_blow_down_simulation_matches_the_class_oracle():
    # the nodal cubic blown up at its node, whose strict transform is smooth
    # rational and meets e twice: contracting e gives the nodal cubic back
    s = declare_curve(surfaces.projective_plane(), "nod", (3,), 1, smooth=False)
    up = blow_up(s, BlowUpRecord("p", (("nod", 2),), None, "e"))
    nod, e = up.curve("nod"), up.curve("e")
    assert nod.smooth and up.meets("nod")[up.position("e")] == 2
    factorization, survivors, dot, p_a, smooth = pairs._blow_down_simulation(up, ("nod", "e"))
    rows = oracles.dense_gram(up.base.kind, up.base.e, len(up.blowups))
    expected = oracles.castelnuovo_image(
        rows,
        up.canonical.coords,
        oracles.dense_coords(up.rank, e.sparse),
        oracles.dense_coords(up.rank, nod.sparse),
        nod.smooth,
    )
    assert factorization == ("e",) and survivors == ["nod"]
    assert (dot["nod"]["nod"], p_a["nod"], smooth["nod"]) == expected == (9, 1, False)
